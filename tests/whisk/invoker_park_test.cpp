// Event-driven invokers: an idle invoker parks on its 100 ms poll grid
// and only the ticks that can find work are simulated, while every pull
// still lands on the grid tick a loop ticking every interval would have
// used. Lazy heartbeats keep the watchdog's detection times. The chaos
// serving scenario at the end pins activation records captured with the
// loop that simulated every tick and every heartbeat.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hpcwhisk/obs/trace.hpp"
#include "hpcwhisk/whisk/invoker.hpp"

namespace hpcwhisk::whisk {
namespace {

using sim::Rng;
using sim::SimTime;
using sim::Simulation;

struct Fixture {
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  Controller controller;

  explicit Fixture(Controller::Config cfg = {})
      : controller{sim, broker, registry, cfg} {
    registry.put(fixed_duration_function("fast", SimTime::millis(10)));
  }

  std::unique_ptr<Invoker> make_invoker(Invoker::Config cfg = {}) {
    return std::make_unique<Invoker>(sim, broker, registry, controller, cfg,
                                     Rng{42});
  }

  mq::Topic& topic_of(const Invoker& inv) {
    return broker.topic(Controller::invoker_topic_name(inv.id()));
  }
};

std::size_t holding(const Invoker& inv) {
  return inv.buffered_messages() + inv.running_executions();
}

TEST(InvokerPark, ParkedInvokerPullsAtItsNextGridTickNeverEarlier) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();  // grid 0.1 s, 0.2 s, ...
  f.sim.run_until(SimTime::seconds(5));
  // The first tick filled the stem-cell pool; nothing else to do.
  EXPECT_TRUE(inv->parked());
  EXPECT_EQ(f.sim.pending_events(), 1u) << "only the controller watchdog";

  f.sim.run_until(SimTime::millis(5234));
  ASSERT_TRUE(f.controller.submit("fast").accepted);
  EXPECT_FALSE(inv->parked());
  f.sim.run_until(SimTime::millis(5299));
  EXPECT_EQ(f.topic_of(*inv).size(), 1u) << "pulled before its grid tick";
  f.sim.run_until(SimTime::millis(5300));
  EXPECT_EQ(f.topic_of(*inv).size(), 0u);
  EXPECT_EQ(holding(*inv), 1u);
  f.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(inv->counters().executed, 1u);
  EXPECT_TRUE(inv->parked());
}

TEST(InvokerPark, PublishOnAGridInstantFollowsTheSkippedTicksOrder) {
  Fixture f;
  auto inv = f.make_invoker();
  inv->start();
  f.sim.run_until(SimTime::seconds(1));
  ASSERT_TRUE(inv->parked());

  // Scheduled long before the tick at 2.0 s was (virtually) armed at
  // 1.9 s: the publish comes first, so that very tick pulls it.
  f.sim.at(SimTime::seconds(2), [&] { (void)f.controller.submit("fast"); });
  f.sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(f.topic_of(*inv).size(), 0u);
  EXPECT_EQ(holding(*inv), 1u);

  f.sim.run_until(SimTime::millis(2950));
  ASSERT_TRUE(inv->parked());
  // Scheduled after 2.9 s: the tick at 3.0 s already ran (empty), so
  // the pull waits for 3.1 s.
  f.sim.after(SimTime::millis(50), [&] { (void)f.controller.submit("fast"); });
  f.sim.run_until(SimTime::seconds(3));
  EXPECT_EQ(f.topic_of(*inv).size(), 1u);
  f.sim.run_until(SimTime::millis(3100));
  EXPECT_EQ(f.topic_of(*inv).size(), 0u);
  f.sim.run_until(SimTime::seconds(5));
  EXPECT_EQ(inv->counters().executed, 2u);
}

TEST(InvokerPark, FastLanePublishWakesEveryParkedInvokerFirstPhasePulls) {
  Fixture f;
  std::vector<std::unique_ptr<Invoker>> invs;
  for (int i = 0; i < 3; ++i) invs.push_back(f.make_invoker());
  // Grid phases 0 ms, 30 ms and 70 ms.
  f.sim.at(SimTime::zero(), [&] { invs[0]->start(); });
  f.sim.at(SimTime::millis(30), [&] { invs[1]->start(); });
  f.sim.at(SimTime::millis(70), [&] { invs[2]->start(); });
  f.sim.run_until(SimTime::seconds(2));
  for (const auto& inv : invs) ASSERT_TRUE(inv->parked());

  f.sim.run_until(SimTime::millis(2050));
  const SubmitResult r = f.controller.submit("fast");
  ASSERT_TRUE(r.accepted);
  // Take the message off its routed topic (that invoker is now awake
  // and will find nothing) and hand it to the fast lane.
  mq::Topic& routed =
      f.broker.topic(Controller::invoker_topic_name(
          f.controller.activation(r.activation).routed_to));
  std::vector<mq::Message> msgs = routed.drain();
  ASSERT_EQ(msgs.size(), 1u);
  f.broker.fast_lane().publish(msgs.front(), f.sim.now());
  for (const auto& inv : invs) EXPECT_FALSE(inv->parked());

  f.sim.run_until(SimTime::millis(2069));
  EXPECT_EQ(f.broker.fast_lane().size(), 1u);
  f.sim.run_until(SimTime::millis(2070));  // phase 70 ms ticks first
  EXPECT_TRUE(f.broker.fast_lane().empty());
  EXPECT_EQ(holding(*invs[2]), 1u);
  EXPECT_EQ(holding(*invs[0]) + holding(*invs[1]), 0u);

  f.sim.run_until(SimTime::seconds(3));
  for (const auto& inv : invs) EXPECT_TRUE(inv->parked());
  EXPECT_EQ(invs[2]->counters().executed, 1u);
}

TEST(InvokerPark, StemCellTakenByDirectInvokeIsRefilledOnTheNextTick) {
  Controller::Config cfg;
  cfg.route_mode = RouteMode::kHashOnly;
  Fixture f{cfg};
  auto a = f.make_invoker();
  auto b = f.make_invoker();
  a->start();
  b->start();
  // A function name the hash routes to b, so submitting it leaves a
  // parked.
  std::string fn;
  for (int i = 0; fn.empty(); ++i) {
    const std::string name = "fn-" + std::to_string(i);
    if (function_hash(name) % 2 == 1) fn = name;
  }
  f.registry.put(fixed_duration_function(fn, SimTime::millis(10)));
  f.sim.run_until(SimTime::seconds(30));  // stem cells booted
  ASSERT_TRUE(a->parked());
  ASSERT_EQ(a->pool().prewarmed_containers(), 2u);

  f.sim.run_until(SimTime::millis(30040));
  const SubmitResult r = f.controller.submit(fn);
  ASSERT_EQ(f.controller.activation(r.activation).routed_to, b->id());
  std::vector<mq::Message> msgs = f.topic_of(*b).drain();
  ASSERT_EQ(msgs.size(), 1u);
  ASSERT_TRUE(a->parked());
  a->direct_invoke(std::move(msgs.front()));
  EXPECT_EQ(a->pool().counters().prewarm_hits, 1u);
  EXPECT_EQ(a->pool().prewarmed_containers(), 1u);
  EXPECT_FALSE(a->parked());

  f.sim.run_until(SimTime::millis(30099));
  EXPECT_EQ(a->pool().prewarmed_containers(), 1u);
  f.sim.run_until(SimTime::millis(30100));
  EXPECT_EQ(a->pool().prewarmed_containers(), 2u);
  EXPECT_TRUE(a->parked());
}

TEST(InvokerPark, KeepAliveReapFiresAtItsDueTickWhileParked) {
  Fixture f;
  Invoker::Config cfg;
  cfg.pool.idle_timeout = SimTime::seconds(5);
  cfg.pool.keep_alive.reap_interval = SimTime::seconds(30);
  auto inv = f.make_invoker(cfg);
  inv->start();
  f.sim.run_until(SimTime::seconds(1));
  ASSERT_TRUE(f.controller.submit("fast").accepted);
  f.sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(inv->counters().executed, 1u);
  ASSERT_TRUE(inv->parked());
  // The reap is due at the first tick >= 30 s after the last one (t=0).
  EXPECT_EQ(inv->pool().idle_containers(), 1u);
  f.sim.run_until(SimTime::millis(29999));
  EXPECT_EQ(inv->pool().idle_containers(), 1u);
  f.sim.run_until(SimTime::seconds(30));
  EXPECT_EQ(inv->pool().idle_containers(), 0u);
  EXPECT_TRUE(inv->parked());
}

// Detection times under lazy heartbeats. The controller sweeps at
// 2 s, 4 s, ...; the deadline is 3 missed beats (> 6 s of silence).
TEST(InvokerPark, LazyHeartbeatsKeepTheWatchdogDetectionTimes) {
  Fixture f;
  auto inv = f.make_invoker();
  f.sim.at(SimTime::millis(500), [&] { inv->start(); });  // beats 2.5, 4.5..
  const auto health = [&] { return f.controller.invoker_health(inv->id()); };

  // Stalled at 5.3 s: last beat 4.5 s, silent past 10.5 s, so the
  // 12 s sweep is the first to flag it.
  f.sim.at(SimTime::millis(5300), [&] { inv->stall(SimTime::seconds(15)); });
  f.sim.run_until(SimTime::millis(11999));
  EXPECT_EQ(health(), InvokerHealth::kHealthy);
  f.sim.run_until(SimTime::seconds(12));
  EXPECT_EQ(health(), InvokerHealth::kUnresponsive);

  // Thaw at 20.3 s: readmitted at once, beats 22.3 s, 24.3 s, ...
  f.sim.run_until(SimTime::millis(20299));
  EXPECT_EQ(health(), InvokerHealth::kUnresponsive);
  f.sim.run_until(SimTime::millis(20300));
  EXPECT_EQ(health(), InvokerHealth::kHealthy);

  // Killed at 25 s: last beat 24.3 s; 30 s is 5.7 s later, 32 s flags.
  f.sim.at(SimTime::seconds(25), [&] { inv->hard_kill(); });
  f.sim.run_until(SimTime::millis(31999));
  EXPECT_EQ(health(), InvokerHealth::kHealthy);
  f.sim.run_until(SimTime::seconds(32));
  EXPECT_EQ(health(), InvokerHealth::kUnresponsive);
  EXPECT_EQ(f.controller.counters().unresponsive_detected, 2u);
}

TEST(InvokerPark, KillOnABeatInstantFollowsTheSkippedBeatsOrder) {
  // Beats at 2 s, 4 s, ... Both kills land at 4 s; only their
  // scheduling time differs.
  for (const bool early : {true, false}) {
    Fixture f;
    auto inv = f.make_invoker();
    inv->start();
    if (early) {
      // Scheduled at 0 s, before the 4 s beat was armed (at 2 s): the
      // kill runs first, the last beat is 2 s, 10 s flags it.
      f.sim.at(SimTime::seconds(4), [&] { inv->hard_kill(); });
    } else {
      // The 4 s beat ran before this top-level kill: 12 s flags it.
      f.sim.run_until(SimTime::seconds(4));
      inv->hard_kill();
    }
    f.sim.run_until(SimTime::millis(9999));
    EXPECT_EQ(f.controller.invoker_health(inv->id()), InvokerHealth::kHealthy);
    f.sim.run_until(SimTime::seconds(10));
    EXPECT_EQ(f.controller.invoker_health(inv->id()),
              early ? InvokerHealth::kUnresponsive : InvokerHealth::kHealthy);
    f.sim.run_until(SimTime::seconds(12));
    EXPECT_EQ(f.controller.invoker_health(inv->id()),
              InvokerHealth::kUnresponsive);
  }
}

// A small chaos serving scenario: staggered invokers (so grid phases
// differ), open-loop Poisson arrivals over short, long and
// non-interruptible functions, mq delay and duplication windows, two
// stalls, two hard kills, one drain and two late joiners. Every
// activation record folds into one FNV-1a hash.
struct ChaosOutcome {
  std::uint64_t hash{0};
  std::size_t records{0};
  Controller::Counters counters;
};

ChaosOutcome run_chaos_serving(std::uint64_t seed) {
  Simulation sim;
  mq::Broker broker;
  FunctionRegistry registry;
  const std::vector<std::string> fns{"f10", "f200", "f2s", "f8s", "pinned"};
  registry.put(fixed_duration_function("f10", SimTime::millis(10)));
  registry.put(fixed_duration_function("f200", SimTime::millis(200)));
  registry.put(fixed_duration_function("f2s", SimTime::seconds(2)));
  registry.put(fixed_duration_function("f8s", SimTime::seconds(8)));
  FunctionSpec pinned = fixed_duration_function("pinned", SimTime::seconds(20));
  pinned.interruptible = false;
  registry.put(pinned);
  Controller controller{sim, broker, registry};

  Rng fault_rng{seed ^ 0x5EEDULL};
  const auto filter = [&sim, &fault_rng](const mq::Message&) {
    mq::Topic::FaultAction a;
    const SimTime t = sim.now();
    const bool window = (t >= SimTime::seconds(20) && t < SimTime::seconds(40)) ||
                        (t >= SimTime::seconds(70) && t < SimTime::seconds(80));
    if (!window) return a;
    if (fault_rng.bernoulli(0.15)) a.delay = SimTime::millis(1500);
    if (fault_rng.bernoulli(0.15)) a.extra_copies = 1;
    return a;
  };
  broker.fast_lane().set_fault_filter(filter, &sim);

  std::vector<std::unique_ptr<Invoker>> invs;
  for (std::uint64_t i = 0; i < 7; ++i) {
    invs.push_back(std::make_unique<Invoker>(sim, broker, registry, controller,
                                             Invoker::Config{}, Rng{seed + i}));
  }
  const auto start = [&](std::size_t i, SimTime at) {
    sim.at(at, [&, i] {
      invs[i]->start();
      broker.topic(Controller::invoker_topic_name(invs[i]->id()))
          .set_fault_filter(filter, &sim);
    });
  };
  for (std::size_t i = 0; i < 5; ++i) start(i, SimTime::millis(370 * i));
  start(5, SimTime::seconds(52));
  start(6, SimTime::millis(90050));

  sim.at(SimTime::seconds(15), [&] { invs[1]->stall(SimTime::seconds(12)); });
  sim.at(SimTime::millis(33300), [&] { invs[3]->hard_kill(); });
  sim.at(SimTime::seconds(50), [&] { invs[0]->sigterm(nullptr); });
  sim.at(SimTime::millis(61700), [&] { invs[2]->stall(SimTime::seconds(3)); });
  sim.at(SimTime::seconds(85), [&] { invs[4]->hard_kill(); });

  Rng arrivals{seed};
  std::function<void()> arrive = [&] {
    if (sim.now() >= SimTime::seconds(100)) return;
    const std::size_t k = static_cast<std::size_t>(
        arrivals.bernoulli(0.7) ? arrivals.uniform_int(0, 1)
                                : arrivals.uniform_int(2, 4));
    (void)controller.submit(fns[k]);
    sim.after(SimTime::seconds(arrivals.exponential(1.0 / 12.0)), arrive);
  };
  sim.at(SimTime::millis(1000), arrive);
  sim.run_until(SimTime::minutes(5));

  std::string log;
  for (const ActivationRecord& r : controller.activations()) {
    log += std::to_string(r.id) + ' ' + r.function + ' ' +
           to_string(r.state) + ' ' + std::to_string(r.submit_time.ticks()) +
           ' ' + std::to_string(r.first_start_time.ticks()) + ' ' +
           std::to_string(r.start_time.ticks()) + ' ' +
           std::to_string(r.end_time.ticks()) + ' ' +
           std::to_string(r.executed_by) + ' ' + std::to_string(r.routed_to) +
           ' ' + std::to_string(r.requeues) + ' ' +
           std::to_string(r.interruptions) + ' ' +
           (r.cold_start ? "cold" : "warm") + '\n';
  }
  ChaosOutcome out;
  out.hash = obs::fnv1a(log);
  out.records = controller.activations().size();
  out.counters = controller.counters();
  return out;
}

// Captured with the invoker loop that simulated every 100 ms tick and
// every 2 s heartbeat.
constexpr std::size_t kChaosRecords = 1163;
constexpr std::uint64_t kChaosHash = 0x4019d3416e778a33ULL;

TEST(InvokerPark, ChaosServingRecordsMatchTheEveryTickLoop) {
  const ChaosOutcome out = run_chaos_serving(11);
  // The scenario must exercise what it claims.
  EXPECT_GT(out.counters.completed, 800u);
  EXPECT_GT(out.counters.requeued, 10u);
  EXPECT_EQ(out.counters.unresponsive_detected, 3u);
  EXPECT_EQ(out.records, kChaosRecords);
  EXPECT_EQ(out.hash, kChaosHash) << "actual hash: 0x" << std::hex << out.hash;
}

}  // namespace
}  // namespace hpcwhisk::whisk
