// Tests for the PMU substrate: event metadata and counter banks.
#include <gtest/gtest.h>

#include <set>

#include "pmu/counters.hpp"
#include "pmu/events.hpp"

namespace {

using namespace synpa::pmu;

TEST(Events, NamesAreUniqueAndNonEmpty) {
    std::set<std::string_view> names;
    for (std::size_t i = 0; i < kEventCount; ++i) {
        const auto name = event_name(static_cast<Event>(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "unknown");
        EXPECT_TRUE(names.insert(name).second) << name;
    }
}

TEST(Events, TableOneEventsPresent) {
    EXPECT_EQ(event_name(Event::kCpuCycles), "cpu_cycles");
    EXPECT_EQ(event_name(Event::kInstSpec), "inst_spec");
    EXPECT_EQ(event_name(Event::kStallFrontend), "stall_frontend");
    EXPECT_EQ(event_name(Event::kStallBackend), "stall_backend");
    EXPECT_EQ(kSynpaEvents.size(), 4u);
}

TEST(Events, DescriptionsMatchTableOneWording) {
    EXPECT_EQ(event_description(Event::kCpuCycles), "Cycles");
    EXPECT_NE(event_description(Event::kStallFrontend).find("no operation"),
              std::string_view::npos);
}

TEST(CounterBank, IncrementAndRead) {
    CounterBank b;
    EXPECT_EQ(b.value(Event::kCpuCycles), 0u);
    b.increment(Event::kCpuCycles);
    b.increment(Event::kInstSpec, 10);
    EXPECT_EQ(b.value(Event::kCpuCycles), 1u);
    EXPECT_EQ(b.value(Event::kInstSpec), 10u);
}

TEST(CounterBank, DeltaSince) {
    CounterBank a, b;
    a.increment(Event::kCpuCycles, 100);
    b = a;
    a.increment(Event::kCpuCycles, 50);
    a.increment(Event::kStallBackend, 7);
    const CounterBank d = a.delta_since(b);
    EXPECT_EQ(d.value(Event::kCpuCycles), 50u);
    EXPECT_EQ(d.value(Event::kStallBackend), 7u);
    EXPECT_EQ(d.value(Event::kInstSpec), 0u);
}

TEST(CounterBank, ResetAndAccumulate) {
    CounterBank a, b;
    a.increment(Event::kBrMisPred, 3);
    b.increment(Event::kBrMisPred, 4);
    a += b;
    EXPECT_EQ(a.value(Event::kBrMisPred), 7u);
    a.reset();
    EXPECT_EQ(a.value(Event::kBrMisPred), 0u);
}

}  // namespace
