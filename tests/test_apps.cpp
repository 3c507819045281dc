// Tests for the application suite: profile validation, phase machine
// behaviour, warmup decay, and the 28-application roster.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/instance.hpp"
#include "apps/profile.hpp"
#include "apps/spec_suite.hpp"
#include "common/rng.hpp"

namespace {

using namespace synpa::apps;

TEST(Suite, HasTwentyEightUniqueApplications) {
    const auto& suite = spec_suite();
    EXPECT_EQ(suite.size(), 28u);
    std::set<std::string> names;
    for (const auto& app : suite) EXPECT_TRUE(names.insert(app.name).second) << app.name;
}

TEST(Suite, AllProfilesValidate) {
    for (const auto& app : spec_suite()) EXPECT_NO_THROW(validate_profile(app)) << app.name;
}

TEST(Suite, PaperRosterPresent) {
    for (const char* name :
         {"mcf", "lbm_r", "cactuBSSN_r", "milc", "xalancbmk_r", "wrf_r", "astar", "gobmk",
          "leela_r", "mcf_r", "perlbench", "hmmer", "nab_r", "bwaves", "bzip2", "tonto"})
        EXPECT_TRUE(has_app(name)) << name;
    EXPECT_FALSE(has_app("not_a_benchmark"));
}

TEST(Suite, FindAppThrowsOnUnknown) {
    EXPECT_THROW(find_app("doom"), std::out_of_range);
    EXPECT_EQ(find_app("mcf").name, "mcf");
}

TEST(Suite, LeelaHasAlternatingPhases) {
    const AppProfile& leela = find_app("leela_r");
    ASSERT_EQ(leela.phase_count(), 2u);
    // The search phase is frontend-dominated, the eval phase backend-heavy.
    EXPECT_GT(leela.phases[0].fe_events_per_kinst, leela.phases[1].fe_events_per_kinst);
    EXPECT_LT(leela.phases[0].be_events_per_kinst, leela.phases[1].be_events_per_kinst);
}

TEST(Profile, ValidationCatchesBadValues) {
    AppProfile p;
    p.name = "bad";
    p.phases.push_back({});
    p.phases[0].dispatch_demand = 5.0;  // above dispatch width
    EXPECT_THROW(validate_profile(p), std::invalid_argument);
    p.phases[0].dispatch_demand = 2.0;
    p.phases[0].mlp = 0.5;  // below 1
    EXPECT_THROW(validate_profile(p), std::invalid_argument);
    p.phases[0].mlp = 1.5;
    p.phases[0].l2_hit_fraction = 1.5;  // outside [0,1]
    EXPECT_THROW(validate_profile(p), std::invalid_argument);
    p.phases[0].l2_hit_fraction = 0.5;
    EXPECT_NO_THROW(validate_profile(p));
    p.phases.clear();
    EXPECT_THROW(validate_profile(p), std::invalid_argument);
}

TEST(Instance, PhaseAccessWrapsCyclically) {
    const AppProfile& leela = find_app("leela_r");
    EXPECT_EQ(&leela.phase(0), &leela.phases[0]);
    EXPECT_EQ(&leela.phase(3), &leela.phases[1]);
}

TEST(Instance, RetireAdvancesInstructionCount) {
    AppInstance t(1, find_app("mcf"), 1);
    t.retire(1000);
    t.retire(500);
    EXPECT_EQ(t.insts_retired(), 1500u);
}

TEST(Instance, RetireIsAdditive) {
    // retire(a); retire(b) must equal retire(a + b) bit for bit: the SMT
    // core hands a task its whole call's dispatch count in one retire.
    // Chunkings of one total end exactly on phase boundaries, one either
    // side of them, at random points, or span several phases at once.
    synpa::common::Rng rng(0xadd, 1);
    int apps_tested = 0;
    for (const AppProfile& app : spec_suite()) {
        if (app.phase_count() < 2) continue;
        ++apps_tested;
        const std::uint64_t seed = rng();
        // Phase boundaries of this seed, found one instruction at a time.
        const std::uint64_t total = 4'000'000;
        std::vector<std::uint64_t> boundaries;
        AppInstance walk(1, app, seed);
        for (std::uint64_t i = 1; i < total; ++i) {
            const std::size_t before = walk.phase_index();
            walk.retire(1);
            if (walk.phase_index() != before) boundaries.push_back(i);
        }
        ASSERT_GE(boundaries.size(), 3u) << app.name;

        std::vector<std::vector<std::uint64_t>> cut_sets = {{}, boundaries, {total / 2}};
        std::vector<std::uint64_t> near;
        for (const std::uint64_t b : boundaries) near.push_back(rng.chance(0.5) ? b - 1 : b + 1);
        cut_sets.push_back(near);
        for (int k = 0; k < 4; ++k) {
            std::vector<std::uint64_t> cuts(1 + rng.below(60));
            for (std::uint64_t& c : cuts) c = 1 + rng.below(total - 1);
            if (k % 2 == 1) cuts.insert(cuts.end(), boundaries.begin(), boundaries.end());
            cut_sets.push_back(cuts);
        }

        // No window, one that ends on a phase boundary, one still decaying.
        for (const std::uint64_t warmup : {std::uint64_t{0}, boundaries[1], 2 * total}) {
            const auto fresh = [&] {
                auto task = std::make_unique<AppInstance>(1, app, seed);
                if (warmup > 0) task->start_warmup(warmup, 2.5);
                return task;
            };
            const auto whole = fresh();
            whole->retire(total);
            for (std::size_t set = 0; set < cut_sets.size(); ++set) {
                std::vector<std::uint64_t> cuts = cut_sets[set];
                if (warmup < total) cuts.push_back(warmup);  // a chunk ends as warmup does
                cuts.push_back(total);
                std::sort(cuts.begin(), cuts.end());
                const auto chunked = fresh();
                std::uint64_t done = 0;
                for (const std::uint64_t c : cuts) {
                    if (c == done) continue;
                    chunked->retire(c - done);
                    done = c;
                }
                const std::string at = app.name + " warmup " + std::to_string(warmup) +
                                       " cut set " + std::to_string(set);
                ASSERT_EQ(chunked->insts_retired(), whole->insts_retired()) << at;
                ASSERT_EQ(chunked->phase_index(), whole->phase_index()) << at;
                ASSERT_EQ(std::bit_cast<std::uint64_t>(chunked->warmup_multiplier()),
                          std::bit_cast<std::uint64_t>(whole->warmup_multiplier()))
                    << at;
                // The phase machine is in the same state, not just the same
                // phase: further retires visit the same sequence.
                const auto next = fresh();
                next->retire(total);
                for (int i = 0; i < 400; ++i) {
                    chunked->retire(7'919);
                    next->retire(7'919);
                    ASSERT_EQ(chunked->phase_index(), next->phase_index()) << at << " step " << i;
                }
            }
        }
    }
    EXPECT_GE(apps_tested, 3);
}

TEST(Instance, PhaseMachineVisitsAllPhases) {
    AppInstance t(1, find_app("leela_r"), 7);
    std::set<std::size_t> seen;
    for (int i = 0; i < 20'000; ++i) {
        t.retire(1000);
        seen.insert(t.phase_index());
    }
    EXPECT_EQ(seen.size(), find_app("leela_r").phase_count());
}

TEST(Instance, PhaseDwellMatchesMeanRoughly) {
    // Over many instructions, the fraction spent in each phase should track
    // the ratio of the dwell means.
    const AppProfile& leela = find_app("leela_r");
    AppInstance t(1, leela, 11);
    std::uint64_t in_search = 0, total = 0;
    const std::uint64_t step = 1000;
    for (int i = 0; i < 60'000; ++i) {
        if (t.phase_index() == 0) in_search += step;
        t.retire(step);
        total += step;
    }
    const double expected = leela.phases[0].dwell_insts_mean /
                            (leela.phases[0].dwell_insts_mean +
                             leela.phases[1].dwell_insts_mean);
    EXPECT_NEAR(static_cast<double>(in_search) / static_cast<double>(total), expected, 0.08);
}

TEST(Instance, SameSeedSamePhaseTrajectory) {
    AppInstance a(1, find_app("leela_r"), 42);
    AppInstance b(2, find_app("leela_r"), 42);  // different id, same seed
    for (int i = 0; i < 5'000; ++i) {
        a.retire(777);
        b.retire(777);
        ASSERT_EQ(a.phase_index(), b.phase_index()) << "diverged at step " << i;
    }
}

TEST(Instance, DifferentSeedsDifferentTrajectories) {
    AppInstance a(1, find_app("leela_r"), 42);
    AppInstance b(2, find_app("leela_r"), 43);
    int diffs = 0;
    for (int i = 0; i < 5'000; ++i) {
        a.retire(777);
        b.retire(777);
        diffs += a.phase_index() != b.phase_index();
    }
    EXPECT_GT(diffs, 0);
}

TEST(Instance, WarmupDecaysLinearlyToOne) {
    AppInstance t(1, find_app("mcf"), 1);
    EXPECT_DOUBLE_EQ(t.warmup_multiplier(), 1.0);
    t.start_warmup(1000, 2.0);
    EXPECT_DOUBLE_EQ(t.warmup_multiplier(), 2.0);
    t.retire(500);
    EXPECT_NEAR(t.warmup_multiplier(), 1.5, 1e-9);
    t.retire(600);
    EXPECT_DOUBLE_EQ(t.warmup_multiplier(), 1.0);
}

TEST(Instance, WarmupBelowOneClamped) {
    AppInstance t(1, find_app("mcf"), 1);
    t.start_warmup(100, 0.5);  // nonsensical multiplier is clamped up
    EXPECT_GE(t.warmup_multiplier(), 1.0);
}

TEST(Instance, RngStreamsAreIndependent) {
    AppInstance t(1, find_app("mcf"), 1);
    const auto fe1 = t.fe_rng()();
    AppInstance u(1, find_app("mcf"), 1);
    u.be_rng()();  // consuming BE stream must not disturb FE stream
    EXPECT_EQ(u.fe_rng()(), fe1);
}

}  // namespace
