// Umbrella header: everything a downstream user of the SYNPA library needs.
//
// The library is organized as the paper is: src/core is the contribution
// (estimator + policy), everything else is the substrate it runs on.  See
// README.md for a walkthrough and examples/ for runnable programs.
#pragma once

#include "apps/instance.hpp"         // application instances (phase machines)
#include "apps/spec_suite.hpp"       // the 28 SPEC-named profiles
#include "core/estimator.hpp"        // runtime isolated-behaviour estimation
#include "core/synpa_policy.hpp"     // the SYNPA allocation policy
#include "exp/aggregators.hpp"       // streaming campaign aggregators
#include "exp/artifact_cache.hpp"    // memoized shared campaign inputs
#include "exp/campaign.hpp"          // the parallel campaign engine
#include "matching/matching.hpp"     // Blossom / subset-DP / brute-force matchers
#include "metrics/metrics.hpp"       // TT, fairness, IPC, pair statistics
#include "model/categories.hpp"      // three-step dispatch characterization
#include "model/interference_model.hpp"  // Equation 1
#include "model/inversion.hpp"       // SMT -> isolated inversion
#include "model/trainer.hpp"         // offline training pipeline
#include "pmu/counters.hpp"          // per-task counter banks
#include "sched/baselines.hpp"       // Linux / Random / Oracle / Sampling
#include "sched/thread_manager.hpp"  // the quantum-driven manager
#include "uarch/platform.hpp"        // the ThunderX2-class simulator
#include "workloads/methodology.hpp" // workloads + measurement methodology
