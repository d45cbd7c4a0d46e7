// Client-visible call timeouts: one deadline FIFO per distinct timeout
// value, with an event for its head only. Calls are driven by hand (no
// invoker runs them), so every deadline and every completion instant is
// chosen by the test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hpcwhisk/mq/message.hpp"
#include "hpcwhisk/whisk/activation.hpp"
#include "hpcwhisk/whisk/controller.hpp"

namespace hpcwhisk::whisk {
namespace {

using sim::SimTime;
using sim::Simulation;

// Interning the function moved into padding: neither hot struct grew
// (the sizes before are spelled in std::string units to stay ABI-neutral).
static_assert(sizeof(ActivationRecord) <=
                  8 + sizeof(std::string) + 8 + 4 * sizeof(SimTime) + 4 * 4 + 8,
              "ActivationRecord grew");
static_assert(sizeof(mq::Message) <=
                  8 + sizeof(std::string) + sizeof(SimTime) + 8,
              "mq::Message grew");

FunctionSpec with_timeout(const std::string& name, SimTime timeout) {
  FunctionSpec spec = fixed_duration_function(name, SimTime::seconds(1));
  spec.timeout = timeout;
  return spec;
}

struct Fixture {
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  Controller controller{sim, broker, registry};
  InvokerId invoker{kNoInvoker};
  /// Terminal transitions in the order they happened.
  std::vector<ActivationId> terminal;

  Fixture() {
    registry.put(with_timeout("short", SimTime::seconds(1)));
    registry.put(with_timeout("long", SimTime::seconds(3)));
    registry.put(with_timeout("also-short", SimTime::seconds(1)));
    // A live heartbeat series keeps the invoker healthy: no watchdog
    // rescue, so the only events are the watchdog sweep and timeouts.
    invoker = controller.register_invoker();
    controller.start_heartbeats(invoker);
    controller.set_terminal_observer(
        [this](const ActivationRecord& rec) { terminal.push_back(rec.id); });
  }

  /// Submits `fn` at simulated time `at`.
  ActivationId submit_at(SimTime at, const std::string& fn) {
    sim.run_until(at);
    const SubmitResult r = controller.submit(fn);
    EXPECT_TRUE(r.accepted);
    return r.activation;
  }

  void complete(ActivationId id) {
    controller.activation_started(id, invoker, false);
    controller.activation_completed(id);
  }

  const ActivationRecord& rec(ActivationId id) const {
    return controller.activation(id);
  }
};

TEST(DeadlineFifo, TimesOutAtExactlySubmitPlusTimeout) {
  Fixture f;
  const ActivationId id = f.submit_at(SimTime::millis(500), "short");
  f.sim.run_until(SimTime::millis(1500) - SimTime::micros(1));
  EXPECT_EQ(f.rec(id).state, ActivationState::kQueued);
  f.sim.run_until(SimTime::millis(1500));
  EXPECT_EQ(f.rec(id).state, ActivationState::kTimedOut);
  EXPECT_EQ(f.rec(id).end_time, SimTime::millis(1500));
  EXPECT_EQ(f.controller.counters().timed_out, 1u);
  EXPECT_FALSE(f.controller.deliverable(id));
}

TEST(DeadlineFifo, TwoTimeoutValuesInterleave) {
  Fixture f;
  // Deadlines: a0 3.0 s, b1 2.0 s, a2 4.5 s, b3 3.5 s, c4 3.6 s (its
  // timeout equals b's, so it shares b's FIFO).
  const ActivationId a0 = f.submit_at(SimTime::zero(), "long");
  const ActivationId b1 = f.submit_at(SimTime::seconds(1), "short");
  const ActivationId a2 = f.submit_at(SimTime::millis(1500), "long");
  const ActivationId b3 = f.submit_at(SimTime::millis(2500), "short");
  const ActivationId c4 = f.submit_at(SimTime::millis(2600), "also-short");
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.terminal, (std::vector<ActivationId>{b1, a0, b3, c4, a2}));
  EXPECT_EQ(f.rec(a0).end_time, SimTime::seconds(3));
  EXPECT_EQ(f.rec(b1).end_time, SimTime::seconds(2));
  EXPECT_EQ(f.rec(a2).end_time, SimTime::millis(4500));
  EXPECT_EQ(f.rec(b3).end_time, SimTime::millis(3500));
  EXPECT_EQ(f.rec(c4).end_time, SimTime::millis(3600));
  EXPECT_EQ(f.controller.counters().timed_out, 5u);
}

TEST(DeadlineFifo, CallsThatCompleteOutOfOrder) {
  Fixture f;
  std::vector<ActivationId> ids;
  for (int i = 0; i < 5; ++i)
    ids.push_back(f.submit_at(SimTime::millis(100.0 * i), "short"));
  // Complete the head last-but-one and skip around; 1 and 3 never finish.
  f.sim.run_until(SimTime::millis(450));
  f.complete(ids[2]);
  f.complete(ids[4]);
  f.sim.run_until(SimTime::millis(900));
  f.complete(ids[0]);
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.rec(ids[0]).state, ActivationState::kCompleted);
  EXPECT_EQ(f.rec(ids[2]).state, ActivationState::kCompleted);
  EXPECT_EQ(f.rec(ids[4]).state, ActivationState::kCompleted);
  EXPECT_EQ(f.rec(ids[1]).state, ActivationState::kTimedOut);
  EXPECT_EQ(f.rec(ids[3]).state, ActivationState::kTimedOut);
  EXPECT_EQ(f.rec(ids[1]).end_time, SimTime::millis(1100));
  EXPECT_EQ(f.rec(ids[3]).end_time, SimTime::millis(1300));
  EXPECT_EQ(f.controller.counters().timed_out, 2u);
  EXPECT_EQ(f.controller.counters().completed, 3u);
  EXPECT_EQ(f.terminal, (std::vector<ActivationId>{ids[2], ids[4], ids[0],
                                                   ids[1], ids[3]}));
}

TEST(DeadlineFifo, CompletionAtTheDeadlineInstantKeepsItsOrder) {
  Fixture f;
  // The head finishes early, so the later calls' events are armed only
  // when the FIFO reaches them. A completion due at a call's deadline
  // instant still resolves as against a timeout armed at submit: an
  // event armed before the submit runs first, one armed at or after it
  // (same instant included) runs second.
  const ActivationId head = f.submit_at(SimTime::zero(), "short");
  f.complete(head);
  f.sim.run_until(SimTime::millis(100));
  ActivationId before = 0;  // completion armed before its submit
  f.sim.at(SimTime::millis(1200), [&] { f.complete(before); });
  before = f.submit_at(SimTime::millis(200), "short");
  const ActivationId same = f.submit_at(SimTime::millis(300), "short");
  f.sim.at(SimTime::millis(1300), [&] { f.complete(same); });
  const ActivationId after = f.submit_at(SimTime::millis(400), "short");
  f.sim.run_until(SimTime::millis(500));
  f.sim.at(SimTime::millis(1400), [&] { f.complete(after); });
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(f.rec(before).state, ActivationState::kCompleted);
  EXPECT_EQ(f.rec(same).state, ActivationState::kTimedOut);
  EXPECT_EQ(f.rec(after).state, ActivationState::kTimedOut);
  EXPECT_EQ(f.rec(same).end_time, SimTime::millis(1300));
  EXPECT_EQ(f.rec(after).end_time, SimTime::millis(1400));
}

TEST(DeadlineFifo, AtMostOneArmedEventPerTimeoutValue) {
  Fixture f;
  // The watchdog sweep is the only other pending event.
  const std::size_t base = f.sim.pending_events();
  for (int i = 0; i < 50; ++i) {
    (void)f.submit_at(SimTime::millis(10.0 * i), "short");
    EXPECT_EQ(f.sim.pending_events(), base + 1);
  }
  for (int i = 0; i < 50; ++i) {
    (void)f.submit_at(SimTime::millis(500 + 10.0 * i), "long");
    (void)f.submit_at(SimTime::millis(505 + 10.0 * i), "also-short");
    EXPECT_LE(f.sim.pending_events(), base + 2);
  }
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(f.controller.counters().timed_out, 150u);
  EXPECT_EQ(f.sim.pending_events(), base) << "empty FIFOs hold no event";
}

}  // namespace
}  // namespace hpcwhisk::whisk
