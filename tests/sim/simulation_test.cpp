#include "hpcwhisk/sim/simulation.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hpcwhisk::sim {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::seconds(1).ticks(), 1'000'000);
  EXPECT_EQ(SimTime::minutes(2).ticks(), 120'000'000);
  EXPECT_EQ(SimTime::hours(1), SimTime::minutes(60));
  EXPECT_EQ(SimTime::days(1), SimTime::hours(24));
  EXPECT_DOUBLE_EQ(SimTime::minutes(90).to_hours(), 1.5);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::seconds(90);
  const SimTime b = SimTime::minutes(1);
  EXPECT_EQ(a - b, SimTime::seconds(30));
  EXPECT_EQ(a + b, SimTime::seconds(150));
  EXPECT_EQ(b * 3, SimTime::minutes(3));
  EXPECT_EQ(a / b, 1);
  EXPECT_EQ(a % b, SimTime::seconds(30));
}

TEST(SimTime, ToString) {
  EXPECT_EQ(SimTime::seconds(1.5).to_string(), "1.500s");
  EXPECT_EQ(SimTime::minutes(2).to_string(), "2m00.0s");
  EXPECT_EQ(SimTime::hours(1.5).to_string(), "1h30m00.0s");
}

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  SimTime seen;
  sim.at(SimTime::seconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::seconds(5));
  EXPECT_EQ(sim.now(), SimTime::seconds(5));
}

TEST(Simulation, AfterIsRelative) {
  Simulation sim;
  std::vector<double> times;
  sim.at(SimTime::seconds(10), [&] {
    sim.after(SimTime::seconds(5), [&] { times.push_back(sim.now().to_seconds()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 15.0);
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.at(SimTime::seconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(SimTime::seconds(5), [] {}), std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  int fired = 0;
  sim.at(SimTime::seconds(1), [&] { ++fired; });
  sim.at(SimTime::seconds(2), [&] { ++fired; });
  sim.at(SimTime::seconds(3), [&] { ++fired; });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(2));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, RunUntilAdvancesClockWhenQueueDrains) {
  Simulation sim;
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(sim.now(), SimTime::minutes(5));
}

TEST(Simulation, CancelledEventDoesNotFire) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.at(SimTime::seconds(1), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, PeriodicFiresAtInterval) {
  Simulation sim;
  std::vector<double> at;
  auto handle = sim.every(SimTime::seconds(10), [&] { at.push_back(sim.now().to_seconds()); });
  sim.run_until(SimTime::seconds(35));
  handle.stop();
  EXPECT_EQ(at, (std::vector<double>{10, 20, 30}));
}

TEST(Simulation, PeriodicStopsWhenHandleStopped) {
  Simulation sim;
  int count = 0;
  auto handle = sim.every(SimTime::seconds(1), [&] { ++count; });
  sim.run_until(SimTime::seconds(3));
  handle.stop();
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(handle.active());
}

TEST(Simulation, PeriodicCanStopItself) {
  Simulation sim;
  int count = 0;
  PeriodicHandle handle;
  handle = sim.every(SimTime::seconds(1), [&] {
    if (++count == 5) handle.stop();
  });
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(count, 5);
}

TEST(Simulation, ZeroIntervalPeriodicThrows) {
  Simulation sim;
  EXPECT_THROW(sim.every(SimTime::zero(), [] {}), std::invalid_argument);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.at(SimTime::seconds(1), [&] { ++fired; });
  sim.at(SimTime::seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsScheduledDuringRunAreExecuted) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.after(SimTime::micros(1), recurse);
  };
  sim.after(SimTime::micros(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
}

TEST(Simulation, SettleToRejectsPendingEarlierEvents) {
  Simulation sim;
  sim.at(SimTime::seconds(1), [] {});
  EXPECT_THROW(sim.settle_to(SimTime::seconds(2)), std::logic_error);
}

TEST(SimulationGrid, NextFiringOnAGridInstantFollowsTheArmingTime) {
  Simulation sim;
  const Simulation::Grid grid = sim.start_grid(SimTime::millis(100));
  std::vector<SimTime> next;
  // Both fire at 0.2 s; the loop's 0.2 s firing was armed at 0.1 s.
  sim.at(SimTime::millis(200), [&] { next.push_back(sim.next_grid_firing(grid)); });
  sim.at(SimTime::millis(150), [&] {
    sim.at(SimTime::millis(200),
           [&] { next.push_back(sim.next_grid_firing(grid)); });
  });
  sim.at(SimTime::millis(250), [&] { next.push_back(sim.next_grid_firing(grid)); });
  EXPECT_EQ(sim.next_grid_firing(grid), SimTime::millis(100));
  sim.run();
  EXPECT_EQ(next, (std::vector<SimTime>{SimTime::millis(200),
                                        SimTime::millis(300),
                                        SimTime::millis(300)}));
  // Outside dispatch, everything due at now() has run.
  sim.settle_to(SimTime::millis(400));
  EXPECT_EQ(sim.next_grid_firing(grid), SimTime::millis(500));
}

TEST(SimulationGrid, LateArmedFiringTakesTheSimulatedLoopsSlot) {
  Simulation sim;
  std::string order;
  const Simulation::Grid grid = sim.start_grid(SimTime::millis(100));
  sim.at(SimTime::seconds(1), [&] { order += 'x'; });  // armed at 0 s
  sim.at(SimTime::millis(950), [&] {
    sim.at(SimTime::seconds(1), [&] { order += 'y'; });  // armed at 0.95 s
  });
  // Armed at 0.97 s, but the loop would have armed it at 0.9 s.
  sim.at(SimTime::millis(970), [&] {
    sim.at_grid(grid, SimTime::seconds(1), [&] { order += 'g'; });
  });
  sim.run();
  EXPECT_EQ(order, "xgy");
}

TEST(SimulationGrid, BirthRanksMatchSimulatedLoopsSharingAPhase) {
  // Each birth starts a real every() loop and a grid; the grids' firings
  // are armed late, yet must interleave like the loops' do.
  Simulation sim;
  const SimTime p = SimTime::millis(100);
  std::string loops;
  std::string grids;
  std::vector<Simulation::Grid> born;
  const auto birth = [&](char name) {
    sim.every(p, [&loops, name] { loops += name; });
    born.push_back(sim.start_grid(p));
    const std::size_t i = born.size() - 1;
    // Late arming for the common instant 1 s.
    sim.at(SimTime::millis(930), [&, i, name] {
      sim.at_grid(born[i], SimTime::seconds(1), [&grids, name] { grids += name; });
    });
  };
  birth('a');  // t = 0, top level: behind nothing
  // Scheduled long before 0.5 s: in front of a at 0.5 s, then c behind b.
  sim.at(SimTime::millis(500), [&] { birth('b'); });
  sim.at(SimTime::millis(500), [&] { birth('c'); });
  // Scheduled at 0.45 s for 0.5 s (after 0.4 s): behind all of them.
  sim.at(SimTime::millis(450), [&] {
    sim.at(SimTime::millis(500), [&] { birth('d'); });
  });
  sim.run_until(SimTime::millis(999));
  loops.clear();
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(loops, "bcad");
  EXPECT_EQ(grids, loops);
}

TEST(SimulationReserve, ReservedEventFiresWhereAnArmAtReservationWould) {
  Simulation sim;
  std::string order;
  sim.at(SimTime::seconds(5), [&] { order += 'a'; });  // armed before
  const Simulation::Reservation r = sim.reserve();
  sim.at(SimTime::seconds(5), [&] { order += 'c'; });  // same instant, after
  sim.run_until(SimTime::seconds(1));
  sim.at(SimTime::seconds(5), [&] { order += 'd'; });  // a later instant
  sim.run_until(SimTime::seconds(2));
  sim.at_reserved(SimTime::seconds(5), r, [&] { order += 'b'; });
  sim.run();
  EXPECT_EQ(order, "abcd");
  EXPECT_THROW(sim.at_reserved(SimTime::seconds(4), sim.reserve(),
                               [&] { order += 'x'; }),
               std::invalid_argument);
}

}  // namespace
}  // namespace hpcwhisk::sim
