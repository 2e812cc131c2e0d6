#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netsim/simulator.hpp"

namespace qv::obs {
namespace {

TEST(SamplerSet, TickRunsEverySamplerWithNow) {
  SamplerSet set;
  std::vector<TimeNs> a, b;
  set.add("a", [&a](TimeNs now) { a.push_back(now); });
  set.add("b", [&b](TimeNs now) { b.push_back(now); });
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.name(0), "a");

  set.tick(10);
  set.tick(20);
  EXPECT_EQ(set.ticks(), 2u);
  EXPECT_EQ(a, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(b, (std::vector<TimeNs>{10, 20}));
}

TEST(SamplerSet, SamplersAddedAfterSchedulingStillTick) {
  // Experiments schedule the tick train once, then wiring helpers keep
  // adding samplers — tick() must always run the live set.
  SamplerSet set;
  int count = 0;
  set.tick(1);
  set.add("late", [&count](TimeNs) { ++count; });
  set.tick(2);
  EXPECT_EQ(count, 1);
}

TEST(ScheduleSamplers, DrivesTicksOnTheSimulatorCadence) {
  netsim::Simulator sim;
  SamplerSet set;
  std::vector<TimeNs> seen;
  set.add("probe", [&seen](TimeNs now) { seen.push_back(now); });

  schedule_samplers(sim, set, /*interval=*/100, /*end=*/450);
  sim.run_until(1000);

  // Ticks on (0, end]: 100, 200, 300, 400 (450 is not a multiple).
  EXPECT_EQ(seen, (std::vector<TimeNs>{100, 200, 300, 400}));
  EXPECT_EQ(set.ticks(), 4u);
}

TEST(ScheduleSamplers, TicksKeepTheirPlaceAmongSameTimeEvents) {
  // Every tick's sequence number is reserved when schedule_samplers()
  // runs, even though one timer fires them all: a same-time event
  // scheduled before that call runs before the tick, one scheduled
  // after it runs after the tick.
  netsim::Simulator sim;
  SamplerSet set;
  std::vector<std::string> order;
  set.add("probe", [&order](TimeNs now) {
    order.push_back("tick@" + std::to_string(now));
  });
  sim.at(300, [&order] { order.push_back("before@300"); });
  schedule_samplers(sim, set, /*interval=*/100, /*end=*/300);
  sim.at(300, [&order] { order.push_back("after@300"); });
  sim.at(200, [&order] { order.push_back("after@200"); });
  sim.run();

  EXPECT_EQ(order,
            (std::vector<std::string>{"tick@100", "tick@200", "after@200",
                                      "before@300", "tick@300",
                                      "after@300"}));
  // Each tick still counts as a dispatched event, but only one timer
  // is ever queued for them: at most 4 events are live, not 6.
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_EQ(sim.wheel_stats().peak_live, 4u);
}

}  // namespace
}  // namespace qv::obs
