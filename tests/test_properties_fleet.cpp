// Property/fuzz suite for the fleet serving layer (src/fleet/).
//
// Generates ~100 seeded random fleet scenarios — random node shapes (SMT
// widths 1/2/4, 1-2 chips, 1-2 cores), fleet sizes 1-4, SLO mixes, both
// preemption settings, and every registered fleet/node policy pairing — and
// asserts *after every quantum* (through FleetOptions::on_quantum) that:
//   * every node individually satisfies uarch::validate_platform,
//   * no task is resident on two nodes at once,
//   * admissions balance: admissions - preemptions = retirements + in-flight,
//   * every preempted task re-entered the queue exactly once
//     (requeues = preemptions, at every quantum boundary), and
//   * occupancy never exceeds any node's hardware contexts.
// After the run, task accounting must balance and nothing stays resident.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fleet/policy.hpp"
#include "fleet/runner.hpp"
#include "model/interference_model.hpp"
#include "scenario/scenario.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

struct FuzzCase {
    uarch::SimConfig cfg;
    scenario::ScenarioSpec spec;
    int nodes = 1;
    bool preemption = true;
    std::string fleet_policy;
    std::string node_policy;
    std::uint64_t seed = 1;
};

FuzzCase draw_case(std::uint64_t seed) {
    common::Rng rng(seed, 0xF1EE7F);
    FuzzCase c;
    c.seed = seed;
    const int widths[] = {1, 2, 4};
    c.cfg.smt_ways = widths[rng.below(3)];
    c.cfg.num_chips = 1 + static_cast<int>(rng.below(2));
    c.cfg.cores = 1 + static_cast<int>(rng.below(2));
    c.cfg.cycles_per_quantum = 1'000;
    c.nodes = 1 + static_cast<int>(rng.below(4));

    const double capacity = static_cast<double>(c.nodes) *
                            static_cast<double>(c.cfg.num_chips) *
                            static_cast<double>(c.cfg.cores) *
                            static_cast<double>(c.cfg.smt_ways);
    c.spec.name = "fleet-fuzz-" + std::to_string(seed);
    c.spec.process = scenario::ArrivalProcess::kPoisson;
    c.spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r", "bwaves"};
    c.spec.service_quanta = 3 + rng.below(3);
    c.spec.horizon_quanta = 10 + rng.below(10);
    c.spec.seed = seed * 2 + 1;
    // Loads from comfortable under-subscription to queueing overload (where
    // admission control and preemption actually engage).
    const double load = 0.4 + rng.uniform(0.0, 0.9);
    c.spec.arrival_rate =
        load * capacity / static_cast<double>(c.spec.service_quanta);
    c.spec.initial_tasks = rng.below(static_cast<std::uint64_t>(capacity) + 1);

    const double lc_mix[] = {0.0, 0.25, 0.5, 0.9};
    c.spec.lc_fraction = lc_mix[rng.below(4)];
    c.preemption = rng.chance(0.5);

    const auto fleet_policies = fleet::registered_fleet_policies();
    c.fleet_policy =
        std::string(fleet_policies[rng.below(fleet_policies.size())].name);
    const char* node_policies[] = {"linux", "random", "sampling", "synpa"};
    c.node_policy = node_policies[rng.below(4)];
    return c;
}

/// One shared scoring model: paper Table IV, enough for synpa node policies
/// and the interference-aware fleet policy alike.
std::shared_ptr<const model::InterferenceModel> shared_model() {
    static const auto model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());
    return model;
}

TEST(FleetProperties, RandomFleetsKeepEveryInvariantEveryQuantum) {
    constexpr std::uint64_t kCases = 100;
    std::uint64_t quanta_checked = 0;
    for (std::uint64_t seed = 0; seed < kCases; ++seed) {
        const FuzzCase c = draw_case(seed);
        SCOPED_TRACE("case " + std::to_string(seed) + ": nodes=" +
                     std::to_string(c.nodes) + " chips=" +
                     std::to_string(c.cfg.num_chips) + " cores=" +
                     std::to_string(c.cfg.cores) + " ways=" +
                     std::to_string(c.cfg.smt_ways) + " fleet=" +
                     c.fleet_policy + " node=" + c.node_policy +
                     " preemption=" + std::to_string(c.preemption));
        const scenario::ScenarioTrace trace = scenario::build_trace(c.spec, c.cfg);

        fleet::FleetOptions fo;
        fo.nodes = c.nodes;
        fo.node_config = c.cfg;
        fo.node_policy = c.node_policy;
        fo.fleet_policy = c.fleet_policy;
        fo.policy_config.model = shared_model();
        fo.policy_config.seed = c.seed + 23;
        fo.fleet_seed = c.seed + 17;
        fo.preemption = c.preemption;
        fo.max_quanta = 2'000;
        fo.on_quantum = [&](const fleet::Fleet& f, const fleet::FleetProgress& p) {
            int live = 0;
            std::set<int> resident;
            for (int n = 0; n < f.node_count(); ++n) {
                const fleet::FleetNode& node = f.node(n);
                // Throws (failing the test with the violation text) on any
                // duplicated/overfull/misbound state inside the node.
                uarch::validate_platform(node.platform());
                ASSERT_LE(node.live_count(), node.capacity());
                live += node.live_count();
                for (const int id : node.resident_ids())
                    ASSERT_TRUE(resident.insert(id).second)
                        << "task " << id << " resident on two nodes";
            }
            // Cluster-wide conservation at every quantum boundary.
            ASSERT_EQ(p.in_flight, live);
            ASSERT_EQ(p.admissions - p.preemptions,
                      p.retirements + static_cast<std::uint64_t>(p.in_flight));
            ASSERT_EQ(p.requeues, p.preemptions);
            ++quanta_checked;
        };

        fleet::FleetRunner runner(trace, std::move(fo));
        const fleet::FleetResult result = runner.run();

        // Task conservation across the whole run.
        ASSERT_EQ(result.tasks.size(), trace.tasks.size());
        EXPECT_TRUE(result.completed);
        EXPECT_EQ(runner.fleet().live_count(), 0);  // nothing stays resident
        std::set<int> ids;
        std::uint64_t demotions = 0;
        std::size_t completed = 0;
        for (const fleet::FleetTaskRecord& rec : result.tasks) {
            demotions += rec.preemptions;
            if (!rec.completed) continue;
            ++completed;
            EXPECT_TRUE(ids.insert(rec.task_id).second)
                << "duplicate task id " << rec.task_id;
            EXPECT_GE(rec.node_id, 0);
            EXPECT_LT(rec.node_id, c.nodes);
            EXPECT_GE(rec.admit_quantum, rec.arrival_quantum);
            EXPECT_GE(rec.finish_quantum,
                      static_cast<double>(rec.admit_quantum));
        }
        EXPECT_EQ(completed, result.completed_tasks);
        // Per-task demotion counts must add up to the cluster counter, and
        // preemption never happens when disabled.
        EXPECT_EQ(demotions, result.preemptions);
        if (!c.preemption) {
            EXPECT_EQ(result.preemptions, 0u);
        }
        EXPECT_GE(result.migrations, result.cross_chip_migrations);
    }
    // The hook must really have run (the suite is pointless otherwise).
    EXPECT_GT(quanta_checked, kCases * 5);
}

}  // namespace
