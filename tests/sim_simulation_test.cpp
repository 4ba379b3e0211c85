#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace saisim::sim {
namespace {

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation s;
  Time seen = Time::zero();
  s.after(Time::ms(5), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::ms(5));
  EXPECT_EQ(s.now(), Time::ms(5));
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation s;
  std::vector<Time> fire_times;
  s.after(Time::us(1), [&] {
    fire_times.push_back(s.now());
    s.after(Time::us(2), [&] { fire_times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[0], Time::us(1));
  EXPECT_EQ(fire_times[1], Time::us(3));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation s;
  int fired = 0;
  s.after(Time::us(1), [&] { ++fired; });
  s.after(Time::us(10), [&] { ++fired; });
  s.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::us(5));
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunUntilExecutesEventsAtExactDeadline) {
  Simulation s;
  int fired = 0;
  s.after(Time::us(5), [&] { ++fired; });
  s.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, RunWhilePredicate) {
  Simulation s;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    s.after(Time::us(1), tick);
  };
  s.after(Time::us(1), tick);
  const bool drained = s.run_while([&] { return count < 10; });
  EXPECT_TRUE(drained);
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunWhileReportsQueueDrain) {
  Simulation s;
  s.after(Time::us(1), [] {});
  EXPECT_FALSE(s.run_while([] { return true; }));
}

TEST(Simulation, RunWhileAcceptsMoveOnlyPredicateState) {
  // run_while is a template now (no std::function conversion), so a
  // predicate holding move-only state works and its calls go through the
  // closure type directly.
  Simulation s;
  for (int i = 0; i < 5; ++i) s.after(Time::us(i + 1), [] {});
  auto budget = std::make_unique<int>(3);
  const bool satisfied =
      s.run_while([&s, b = std::move(budget)] {
        return s.events_executed() < static_cast<u64>(*b);
      });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulation, EventCountIsTracked) {
  Simulation s;
  for (int i = 0; i < 7; ++i) s.after(Time::us(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation s;
  int fired = 0;
  auto h = s.after(Time::us(1), [&] { ++fired; });
  s.cancel(h);
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, AtSchedulesAbsoluteTime) {
  Simulation s;
  Time seen = Time::zero();
  s.at(Time::ms(2), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, Time::ms(2));
}

TEST(Simulation, DeterministicReplay) {
  auto run_once = [] {
    Simulation s(1234);
    std::vector<u64> draws;
    for (int i = 0; i < 5; ++i)
      s.after(Time::us(i + 1), [&] { draws.push_back(s.rng().next_u64()); });
    s.run();
    return draws;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace saisim::sim
