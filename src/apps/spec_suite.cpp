// Profiles for the 28 paper applications.
//
// Quick reference for reading the numbers (per 1000 dispatched instructions,
// with dispatch width 4 and the default latencies):
//   * full-dispatch cycles are fixed at 250 per kinst (N / W);
//   * dispatch cycles are 1000 / dispatch_demand, and the surplus over 250
//     is horizontal waste that the Step-3 characterization assigns to the
//     backend ("revealed" stalls);
//   * a memory episode stalls roughly (mem_latency - ROB/demand) cycles, and
//     only L2->LLC misses that also miss the LLC reach memory;
//   * a branch misprediction costs ~14 cycles of empty dispatch queue, an
//     ICache miss the service latency minus whatever the fetch buffer hides.
// The constants below were calibrated against the simulator so the isolated
// characterization lands in the paper's Table III groups (verified by
// tests/test_suite_calibration.cpp).
#include "apps/spec_suite.hpp"

// Profiles use partial designated initializers on purpose: unnamed fields
// take their documented defaults, and mono() fills in the phase name.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers" 

#include <map>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace synpa::apps {
namespace {

/// Single-phase application helper.
AppProfile mono(std::string name, PhaseParams p) {
    p.name = "main";
    AppProfile a;
    a.name = std::move(name);
    a.phases.push_back(std::move(p));
    validate_profile(a);
    return a;
}

/// Multi-phase application helper (phases visited cyclically).
AppProfile multi(std::string name, std::vector<PhaseParams> phases) {
    AppProfile a;
    a.name = std::move(name);
    a.phases = std::move(phases);
    validate_profile(a);
    return a;
}

std::vector<AppProfile> build_suite() {
    std::vector<AppProfile> suite;
    suite.reserve(28);

    // ---- Backend bound (Table III: backend stalls > 65%) -----------------
    suite.push_back(mono("mcf", {.dispatch_demand = 2.2,
                                 .fe_events_per_kinst = 2.0,
                                 .fe_branch_fraction = 0.7,
                                 .code_footprint_kb = 14,
                                 .be_events_per_kinst = 32,
                                 .l2_hit_fraction = 0.25,
                                 .llc_hit_fraction = 0.45,
                                 .mlp = 1.6,
                                 .data_footprint_l2_kb = 640,
                                 .data_footprint_llc_mb = 20,
                                 .dwell_insts_mean = 600'000}));
    suite.push_back(mono("lbm_r", {.dispatch_demand = 2.8,
                                   .fe_events_per_kinst = 1.0,
                                   .fe_branch_fraction = 0.5,
                                   .code_footprint_kb = 10,
                                   .be_events_per_kinst = 30,
                                   .l2_hit_fraction = 0.20,
                                   .llc_hit_fraction = 0.25,
                                   .mlp = 3.0,
                                   .data_footprint_l2_kb = 512,
                                   .data_footprint_llc_mb = 16,
                                   .dwell_insts_mean = 700'000}));
    suite.push_back(mono("cactuBSSN_r", {.dispatch_demand = 2.6,
                                         .fe_events_per_kinst = 2.0,
                                         .fe_branch_fraction = 0.4,
                                         .code_footprint_kb = 20,
                                         .be_events_per_kinst = 28,
                                         .l2_hit_fraction = 0.35,
                                         .llc_hit_fraction = 0.45,
                                         .mlp = 1.6,
                                         .data_footprint_l2_kb = 512,
                                         .data_footprint_llc_mb = 9,
                                         .dwell_insts_mean = 650'000}));
    suite.push_back(mono("milc", {.dispatch_demand = 2.5,
                                  .fe_events_per_kinst = 2.0,
                                  .fe_branch_fraction = 0.5,
                                  .code_footprint_kb = 12,
                                  .be_events_per_kinst = 30,
                                  .l2_hit_fraction = 0.30,
                                  .llc_hit_fraction = 0.40,
                                  .mlp = 2.0,
                                  .data_footprint_l2_kb = 512,
                                  .data_footprint_llc_mb = 12,
                                  .dwell_insts_mean = 550'000}));
    suite.push_back(multi("xalancbmk_r",
                          {{.name = "traverse",
                            .dispatch_demand = 2.4,
                            .fe_events_per_kinst = 6.0,
                            .fe_branch_fraction = 0.6,
                            .code_footprint_kb = 40,
                            .be_events_per_kinst = 30,
                            .l2_hit_fraction = 0.40,
                            .llc_hit_fraction = 0.42,
                            .mlp = 1.3,
                            .data_footprint_l2_kb = 448,
                            .data_footprint_llc_mb = 7,
                            .dwell_insts_mean = 550'000},
                           {.name = "transform",
                            .dispatch_demand = 2.5,
                            .fe_events_per_kinst = 9.0,
                            .fe_branch_fraction = 0.6,
                            .code_footprint_kb = 44,
                            .be_events_per_kinst = 24,
                            .l2_hit_fraction = 0.45,
                            .llc_hit_fraction = 0.45,
                            .mlp = 1.3,
                            .data_footprint_l2_kb = 384,
                            .data_footprint_llc_mb = 6,
                            .dwell_insts_mean = 300'000}}));
    suite.push_back(mono("wrf_r", {.dispatch_demand = 2.7,
                                   .fe_events_per_kinst = 3.0,
                                   .fe_branch_fraction = 0.5,
                                   .code_footprint_kb = 26,
                                   .be_events_per_kinst = 30,
                                   .l2_hit_fraction = 0.35,
                                   .llc_hit_fraction = 0.45,
                                   .mlp = 1.8,
                                   .data_footprint_l2_kb = 448,
                                   .data_footprint_llc_mb = 10,
                                   .dwell_insts_mean = 600'000}));

    // ---- Frontend bound (Table III: frontend stalls > 35%) ---------------
    // leela_r alternates a branchy game-tree-search phase with a
    // memory-touching evaluation phase; the paper's Figure 7 shows exactly
    // this FE/BE alternation at runtime.
    suite.push_back(multi("leela_r",
                          {{.name = "search",
                            .dispatch_demand = 2.3,
                            .fe_events_per_kinst = 34,
                            .fe_branch_fraction = 0.75,
                            .icache_l2_fraction = 0.8,
                            .code_footprint_kb = 26,
                            .be_events_per_kinst = 3.0,
                            .l2_hit_fraction = 0.6,
                            .llc_hit_fraction = 0.7,
                            .mlp = 1.2,
                            .data_footprint_l2_kb = 96,
                            .data_footprint_llc_mb = 1,
                            .dwell_insts_mean = 700'000},
                           {.name = "eval",
                            .dispatch_demand = 2.5,
                            .fe_events_per_kinst = 10,
                            .fe_branch_fraction = 0.6,
                            .icache_l2_fraction = 0.85,
                            .code_footprint_kb = 18,
                            .be_events_per_kinst = 16,
                            .l2_hit_fraction = 0.45,
                            .llc_hit_fraction = 0.6,
                            .mlp = 1.4,
                            .data_footprint_l2_kb = 320,
                            .data_footprint_llc_mb = 4,
                            .dwell_insts_mean = 300'000}}));
    suite.push_back(multi("gobmk",
                          {{.name = "pattern",
                            .dispatch_demand = 2.2,
                            .fe_events_per_kinst = 34,
                            .fe_branch_fraction = 0.7,
                            .icache_l2_fraction = 0.7,
                            .code_footprint_kb = 38,
                            .be_events_per_kinst = 5,
                            .l2_hit_fraction = 0.5,
                            .llc_hit_fraction = 0.6,
                            .mlp = 1.2,
                            .data_footprint_l2_kb = 128,
                            .data_footprint_llc_mb = 1.5,
                            .dwell_insts_mean = 500'000},
                           {.name = "life",
                            .dispatch_demand = 2.3,
                            .fe_events_per_kinst = 26,
                            .fe_branch_fraction = 0.75,
                            .icache_l2_fraction = 0.75,
                            .code_footprint_kb = 34,
                            .be_events_per_kinst = 8,
                            .l2_hit_fraction = 0.5,
                            .llc_hit_fraction = 0.55,
                            .mlp = 1.2,
                            .data_footprint_l2_kb = 160,
                            .data_footprint_llc_mb = 2,
                            .dwell_insts_mean = 400'000}}));
    // astar flips between a branchy pathfinding phase and a pointer-chasing
    // map phase (Table V shows it acting backend-bound ~45% of the time
    // when co-scheduled with leela_r).
    suite.push_back(multi("astar",
                          {{.name = "search",
                            .dispatch_demand = 2.4,
                            .fe_events_per_kinst = 38,
                            .fe_branch_fraction = 0.7,
                            .icache_l2_fraction = 0.8,
                            .code_footprint_kb = 24,
                            .be_events_per_kinst = 4,
                            .l2_hit_fraction = 0.55,
                            .llc_hit_fraction = 0.6,
                            .mlp = 1.2,
                            .data_footprint_l2_kb = 128,
                            .data_footprint_llc_mb = 1.5,
                            .dwell_insts_mean = 650'000},
                           {.name = "map",
                            .dispatch_demand = 2.4,
                            .fe_events_per_kinst = 10,
                            .fe_branch_fraction = 0.6,
                            .icache_l2_fraction = 0.85,
                            .code_footprint_kb = 18,
                            .be_events_per_kinst = 18,
                            .l2_hit_fraction = 0.45,
                            .llc_hit_fraction = 0.5,
                            .mlp = 1.4,
                            .data_footprint_l2_kb = 384,
                            .data_footprint_llc_mb = 5,
                            .dwell_insts_mean = 350'000}}));
    suite.push_back(multi("mcf_r",
                          {{.name = "simplex",
                            .dispatch_demand = 2.3,
                            .fe_events_per_kinst = 28,
                            .fe_branch_fraction = 0.45,
                            .icache_l2_fraction = 0.6,
                            .code_footprint_kb = 44,
                            .be_events_per_kinst = 10,
                            .l2_hit_fraction = 0.45,
                            .llc_hit_fraction = 0.55,
                            .mlp = 1.4,
                            .data_footprint_l2_kb = 256,
                            .data_footprint_llc_mb = 4,
                            .dwell_insts_mean = 600'000},
                           {.name = "network",
                            .dispatch_demand = 2.3,
                            .fe_events_per_kinst = 14,
                            .fe_branch_fraction = 0.5,
                            .icache_l2_fraction = 0.7,
                            .code_footprint_kb = 32,
                            .be_events_per_kinst = 16,
                            .l2_hit_fraction = 0.4,
                            .llc_hit_fraction = 0.5,
                            .mlp = 1.4,
                            .data_footprint_l2_kb = 384,
                            .data_footprint_llc_mb = 6,
                            .dwell_insts_mean = 300'000}}));
    suite.push_back(mono("perlbench", {.dispatch_demand = 2.5,
                                       .fe_events_per_kinst = 28,
                                       .fe_branch_fraction = 0.35,
                                       .icache_l2_fraction = 0.5,
                                       .code_footprint_kb = 72,
                                       .be_events_per_kinst = 7,
                                       .l2_hit_fraction = 0.55,
                                       .llc_hit_fraction = 0.65,
                                       .mlp = 1.5,
                                       .data_footprint_l2_kb = 192,
                                       .data_footprint_llc_mb = 2,
                                       .dwell_insts_mean = 500'000}));

    // ---- Others (Table III: the remaining 17) ------------------------------
    // hmmer anchors the low end of the full-dispatch range (~20%), nab_r the
    // high end (~61%); the rest spread in between.
    suite.push_back(mono("hmmer", {.dispatch_demand = 2.2,
                                   .fe_events_per_kinst = 18,
                                   .fe_branch_fraction = 0.6,
                                   .code_footprint_kb = 22,
                                   .be_events_per_kinst = 17,
                                   .l2_hit_fraction = 0.50,
                                   .llc_hit_fraction = 0.45,
                                   .mlp = 1.4,
                                   .data_footprint_l2_kb = 320,
                                   .data_footprint_llc_mb = 4,
                                   .dwell_insts_mean = 500'000}));
    suite.push_back(mono("nab_r", {.dispatch_demand = 3.1,
                                   .fe_events_per_kinst = 2,
                                   .fe_branch_fraction = 0.6,
                                   .code_footprint_kb = 12,
                                   .be_events_per_kinst = 7,
                                   .l2_hit_fraction = 0.6,
                                   .llc_hit_fraction = 0.7,
                                   .mlp = 1.5,
                                   .data_footprint_l2_kb = 160,
                                   .data_footprint_llc_mb = 1.5,
                                   .dwell_insts_mean = 600'000}));
    suite.push_back(mono("bwaves", {.dispatch_demand = 3.0,
                                    .fe_events_per_kinst = 2,
                                    .fe_branch_fraction = 0.5,
                                    .code_footprint_kb = 12,
                                    .be_events_per_kinst = 16,
                                    .l2_hit_fraction = 0.5,
                                    .llc_hit_fraction = 0.45,
                                    .mlp = 2.8,
                                    .data_footprint_l2_kb = 384,
                                    .data_footprint_llc_mb = 7,
                                    .dwell_insts_mean = 650'000}));
    suite.push_back(mono("calculix", {.dispatch_demand = 3.1,
                                      .fe_events_per_kinst = 5,
                                      .fe_branch_fraction = 0.55,
                                      .code_footprint_kb = 18,
                                      .be_events_per_kinst = 12,
                                      .l2_hit_fraction = 0.55,
                                      .llc_hit_fraction = 0.5,
                                      .mlp = 2.0,
                                      .data_footprint_l2_kb = 256,
                                      .data_footprint_llc_mb = 3,
                                      .dwell_insts_mean = 550'000}));
    suite.push_back(multi("cam4_r",
                          {{.name = "physics",
                            .dispatch_demand = 2.6,
                            .fe_events_per_kinst = 16,
                            .fe_branch_fraction = 0.5,
                            .icache_l2_fraction = 0.7,
                            .code_footprint_kb = 40,
                            .be_events_per_kinst = 9,
                            .l2_hit_fraction = 0.5,
                            .llc_hit_fraction = 0.55,
                            .mlp = 1.6,
                            .data_footprint_l2_kb = 256,
                            .data_footprint_llc_mb = 3.5,
                            .dwell_insts_mean = 500'000},
                           {.name = "dynamics",
                            .dispatch_demand = 2.8,
                            .fe_events_per_kinst = 6,
                            .fe_branch_fraction = 0.5,
                            .icache_l2_fraction = 0.8,
                            .code_footprint_kb = 24,
                            .be_events_per_kinst = 14,
                            .l2_hit_fraction = 0.5,
                            .llc_hit_fraction = 0.5,
                            .mlp = 1.8,
                            .data_footprint_l2_kb = 320,
                            .data_footprint_llc_mb = 5,
                            .dwell_insts_mean = 400'000}}));
    suite.push_back(mono("deepsjeng_r", {.dispatch_demand = 2.6,
                                         .fe_events_per_kinst = 18,
                                         .fe_branch_fraction = 0.7,
                                         .code_footprint_kb = 26,
                                         .be_events_per_kinst = 8,
                                         .l2_hit_fraction = 0.5,
                                         .llc_hit_fraction = 0.55,
                                         .mlp = 1.3,
                                         .data_footprint_l2_kb = 192,
                                         .data_footprint_llc_mb = 2.5,
                                         .dwell_insts_mean = 450'000}));
    suite.push_back(mono("exchange2_r", {.dispatch_demand = 3.0,
                                         .fe_events_per_kinst = 10,
                                         .fe_branch_fraction = 0.85,
                                         .code_footprint_kb = 16,
                                         .be_events_per_kinst = 2,
                                         .l2_hit_fraction = 0.7,
                                         .llc_hit_fraction = 0.8,
                                         .mlp = 1.2,
                                         .data_footprint_l2_kb = 64,
                                         .data_footprint_llc_mb = 0.5,
                                         .dwell_insts_mean = 600'000}));
    suite.push_back(mono("fotonik3d_r", {.dispatch_demand = 2.9,
                                         .fe_events_per_kinst = 3,
                                         .fe_branch_fraction = 0.5,
                                         .code_footprint_kb = 14,
                                         .be_events_per_kinst = 18,
                                         .l2_hit_fraction = 0.45,
                                         .llc_hit_fraction = 0.45,
                                         .mlp = 2.6,
                                         .data_footprint_l2_kb = 384,
                                         .data_footprint_llc_mb = 8,
                                         .dwell_insts_mean = 600'000}));
    suite.push_back(mono("imagick_r", {.dispatch_demand = 3.1,
                                       .fe_events_per_kinst = 5,
                                       .fe_branch_fraction = 0.6,
                                       .code_footprint_kb = 18,
                                       .be_events_per_kinst = 12,
                                       .l2_hit_fraction = 0.55,
                                       .llc_hit_fraction = 0.55,
                                       .mlp = 2.2,
                                       .data_footprint_l2_kb = 256,
                                       .data_footprint_llc_mb = 3,
                                       .dwell_insts_mean = 500'000}));
    suite.push_back(mono("namd_r", {.dispatch_demand = 3.0,
                                    .fe_events_per_kinst = 6,
                                    .fe_branch_fraction = 0.55,
                                    .code_footprint_kb = 20,
                                    .be_events_per_kinst = 12,
                                    .l2_hit_fraction = 0.55,
                                    .llc_hit_fraction = 0.55,
                                    .mlp = 2.0,
                                    .data_footprint_l2_kb = 256,
                                    .data_footprint_llc_mb = 3,
                                    .dwell_insts_mean = 550'000}));
    suite.push_back(multi("omnetpp_r",
                          {{.name = "event-loop",
                            .dispatch_demand = 2.5,
                            .fe_events_per_kinst = 10,
                            .fe_branch_fraction = 0.55,
                            .icache_l2_fraction = 0.7,
                            .code_footprint_kb = 36,
                            .be_events_per_kinst = 16,
                            .l2_hit_fraction = 0.4,
                            .llc_hit_fraction = 0.55,
                            .mlp = 1.3,
                            .data_footprint_l2_kb = 384,
                            .data_footprint_llc_mb = 5,
                            .dwell_insts_mean = 450'000},
                           {.name = "stats",
                            .dispatch_demand = 2.6,
                            .fe_events_per_kinst = 8,
                            .fe_branch_fraction = 0.5,
                            .icache_l2_fraction = 0.8,
                            .code_footprint_kb = 28,
                            .be_events_per_kinst = 12,
                            .l2_hit_fraction = 0.5,
                            .llc_hit_fraction = 0.6,
                            .mlp = 1.4,
                            .data_footprint_l2_kb = 256,
                            .data_footprint_llc_mb = 3.5,
                            .dwell_insts_mean = 300'000}}));
    suite.push_back(mono("parest_r", {.dispatch_demand = 2.8,
                                      .fe_events_per_kinst = 5,
                                      .fe_branch_fraction = 0.5,
                                      .code_footprint_kb = 22,
                                      .be_events_per_kinst = 13,
                                      .l2_hit_fraction = 0.5,
                                      .llc_hit_fraction = 0.55,
                                      .mlp = 1.7,
                                      .data_footprint_l2_kb = 288,
                                      .data_footprint_llc_mb = 4,
                                      .dwell_insts_mean = 500'000}));
    suite.push_back(mono("povray_r", {.dispatch_demand = 2.9,
                                      .fe_events_per_kinst = 11,
                                      .fe_branch_fraction = 0.75,
                                      .code_footprint_kb = 26,
                                      .be_events_per_kinst = 4,
                                      .l2_hit_fraction = 0.6,
                                      .llc_hit_fraction = 0.7,
                                      .mlp = 1.3,
                                      .data_footprint_l2_kb = 96,
                                      .data_footprint_llc_mb = 1,
                                      .dwell_insts_mean = 550'000}));
    suite.push_back(mono("roms_r", {.dispatch_demand = 2.9,
                                    .fe_events_per_kinst = 4,
                                    .fe_branch_fraction = 0.5,
                                    .code_footprint_kb = 16,
                                    .be_events_per_kinst = 13,
                                    .l2_hit_fraction = 0.5,
                                    .llc_hit_fraction = 0.5,
                                    .mlp = 2.4,
                                    .data_footprint_l2_kb = 320,
                                    .data_footprint_llc_mb = 6,
                                    .dwell_insts_mean = 600'000}));
    suite.push_back(mono("tonto", {.dispatch_demand = 3.0,
                                   .fe_events_per_kinst = 9,
                                   .fe_branch_fraction = 0.6,
                                   .code_footprint_kb = 24,
                                   .be_events_per_kinst = 9,
                                   .l2_hit_fraction = 0.55,
                                   .llc_hit_fraction = 0.6,
                                   .mlp = 1.6,
                                   .data_footprint_l2_kb = 192,
                                   .data_footprint_llc_mb = 2,
                                   .dwell_insts_mean = 500'000}));
    suite.push_back(mono("blender_r", {.dispatch_demand = 2.9,
                                       .fe_events_per_kinst = 11,
                                       .fe_branch_fraction = 0.6,
                                       .code_footprint_kb = 30,
                                       .be_events_per_kinst = 8,
                                       .l2_hit_fraction = 0.55,
                                       .llc_hit_fraction = 0.6,
                                       .mlp = 1.5,
                                       .data_footprint_l2_kb = 192,
                                       .data_footprint_llc_mb = 2.5,
                                       .dwell_insts_mean = 500'000}));
    suite.push_back(mono("bzip2", {.dispatch_demand = 2.6,
                                   .fe_events_per_kinst = 7,
                                   .fe_branch_fraction = 0.65,
                                   .code_footprint_kb = 14,
                                   .be_events_per_kinst = 10,
                                   .l2_hit_fraction = 0.55,
                                   .llc_hit_fraction = 0.7,
                                   .mlp = 1.6,
                                   .data_footprint_l2_kb = 256,
                                   .data_footprint_llc_mb = 3,
                                   .dwell_insts_mean = 450'000}));

    return suite;
}

}  // namespace

std::vector<AppProfile>& spec_suite() {
    // synpa-lint: shard-ok(built once; calibrate_suite writes it under a lock before any run)
    static std::vector<AppProfile> suite = build_suite();
    return suite;
}

const AppProfile& find_app(std::string_view name) {
    static const std::unordered_map<std::string_view, std::size_t> index = [] {
        std::unordered_map<std::string_view, std::size_t> m;
        const auto& suite = spec_suite();
        for (std::size_t i = 0; i < suite.size(); ++i) m.emplace(suite[i].name, i);
        return m;
    }();
    const auto it = index.find(name);
    if (it != index.end()) return spec_suite()[it->second];

    // "app:phase" pins a multi-phase suite application to one of its phases
    // (pair_explorer and the pair campaigns use this to measure phase-level
    // slowdown matrices).  Synthesized clones are cached so callers get a
    // stable reference, like suite lookups.
    const auto colon = name.find(':');
    if (colon != std::string_view::npos) {
        // synpa-lint: shard-ok(insert-only memo behind `mutex`; references stay valid)
        static std::map<std::string, AppProfile, std::less<>> pinned;
        static std::mutex mutex;  // synpa-lint: shard-ok(the lock guarding `pinned`)
        const std::lock_guard lock(mutex);
        const auto pit = pinned.find(name);
        if (pit != pinned.end()) return pit->second;
        const AppProfile& base = find_app(name.substr(0, colon));
        const std::string_view phase = name.substr(colon + 1);
        for (std::size_t p = 0; p < base.phases.size(); ++p) {
            if (base.phases[p].name != phase) continue;
            AppProfile clone;
            clone.name = std::string(name);
            clone.phases = {base.phases[p]};
            if (p < base.phase_categories.size())
                clone.phase_categories = {base.phase_categories[p]};
            return pinned.emplace(std::string(name), std::move(clone)).first->second;
        }
        throw std::out_of_range("find_app: unknown phase '" + std::string(phase) + "' of " +
                                base.name);
    }
    throw std::out_of_range("find_app: unknown application '" + std::string(name) + "'");
}

bool has_app(std::string_view name) {
    const auto& suite = spec_suite();
    for (const auto& app : suite)
        if (app.name == name) return true;
    return false;
}

}  // namespace synpa::apps
