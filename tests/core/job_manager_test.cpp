#include "hpcwhisk/core/job_manager.hpp"

#include <gtest/gtest.h>

#include "hpcwhisk/core/system.hpp"

namespace hpcwhisk::core {
namespace {

using sim::Rng;
using sim::SimTime;
using sim::Simulation;

struct Fixture {
  Simulation sim;
  mq::Broker broker;
  whisk::FunctionRegistry registry;
  whisk::Controller controller{sim, broker, registry};
  slurm::Slurmctld ctld;

  explicit Fixture(std::uint32_t nodes = 4,
                   SimTime launch_latency = SimTime::zero())
      : ctld{sim,
             [nodes, launch_latency] {
               slurm::Slurmctld::Config cfg;
               cfg.node_count = nodes;
               cfg.launch_latency = launch_latency;
               cfg.min_pass_gap = SimTime::zero();
               return cfg;
             }(),
             default_partitions()} {
    registry.put(whisk::fixed_duration_function("fn", SimTime::millis(10)));
  }

  JobManager make_manager(JobManager::Config cfg = {}) {
    return JobManager{sim,      ctld,        broker, registry,
                      controller, std::move(cfg), Rng{5}};
  }
};

TEST(JobLengthSets, MatchThePaper) {
  EXPECT_EQ(job_length_set("A1"),
            (std::vector<SimTime>{
                SimTime::minutes(2), SimTime::minutes(4), SimTime::minutes(6),
                SimTime::minutes(8), SimTime::minutes(14), SimTime::minutes(22),
                SimTime::minutes(34), SimTime::minutes(56),
                SimTime::minutes(90)}));
  EXPECT_EQ(job_length_set("B").size(), 6u);
  EXPECT_EQ(job_length_set("C1").size(), 10u);
  EXPECT_EQ(job_length_set("C2").size(), 60u);  // 2,4,...,120
  EXPECT_EQ(job_length_set("C2").front(), SimTime::minutes(2));
  EXPECT_EQ(job_length_set("C2").back(), SimTime::minutes(120));
  EXPECT_THROW(job_length_set("Z9"), std::invalid_argument);
}

TEST(JobManager, FibKeepsPerLengthQueueDepth) {
  Fixture f{1};
  JobManager::Config cfg;
  cfg.fib_lengths = job_length_set("B");  // 6 lengths
  cfg.fib_per_length = 3;
  cfg.max_queued = 100;
  auto manager = f.make_manager(cfg);
  manager.start();
  // 1 node: one pilot starts, the rest stay queued; the queue must hold
  // 3 jobs per length minus whatever started.
  f.sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(manager.active_pilots(), 1u);
  // One pilot started; the replenish loop has already topped the queue
  // back up to 3 per length.
  EXPECT_EQ(manager.queued(), 6u * 3u);
}

TEST(JobManager, QueueNeverExceedsCap) {
  Fixture f{1};
  JobManager::Config cfg;
  cfg.fib_lengths = job_length_set("C2");  // 60 lengths x 10 = 600 > cap
  auto manager = f.make_manager(cfg);
  manager.start();
  f.sim.run_until(SimTime::minutes(2));
  EXPECT_LE(manager.queued(), 100u);
}

TEST(JobManager, ReplenishesAfterStarts) {
  Fixture f{4};
  JobManager::Config cfg;
  cfg.fib_lengths = {SimTime::minutes(10)};
  cfg.fib_per_length = 5;
  auto manager = f.make_manager(cfg);
  manager.start();
  f.sim.run_until(SimTime::minutes(1));
  // 4 pilots started on the 4 nodes; after the next replenish tick the
  // queue is back at 5.
  EXPECT_EQ(manager.active_pilots(), 4u);
  EXPECT_EQ(manager.queued(), 5u);
  EXPECT_GE(manager.counters().submitted, 9u);
}

TEST(JobManager, LongerFibJobsHaveHigherPriority) {
  Fixture f{1};
  JobManager::Config cfg;
  cfg.fib_lengths = {SimTime::minutes(2), SimTime::minutes(90)};
  cfg.fib_per_length = 1;
  auto manager = f.make_manager(cfg);
  manager.start();
  f.sim.run_until(SimTime::minutes(1));
  // The single node must run the 90-minute pilot (greedy long-first).
  ASSERT_EQ(manager.active_pilots(), 1u);
  bool found_running_90 = false;
  for (std::uint32_t n = 0; n < 1; ++n) {
    const auto& rec = f.ctld.job(f.ctld.job(1).id);
    (void)rec;
  }
  // Check via the slurm record of the running pilot.
  for (slurm::JobId id = 1; id < 10; ++id) {
    if (!f.ctld.is_known(id)) break;
    const auto& rec = f.ctld.job(id);
    if (rec.state == slurm::JobState::kRunning) {
      EXPECT_EQ(rec.spec.time_limit, SimTime::minutes(90));
      found_running_90 = true;
    }
  }
  EXPECT_TRUE(found_running_90);
}

TEST(JobManager, VarSubmitsFlexibleJobs) {
  Fixture f{2};
  JobManager::Config cfg;
  cfg.model = SupplyModel::kVar;
  cfg.var_target = 20;
  auto manager = f.make_manager(cfg);
  manager.start();
  f.sim.run_until(SimTime::minutes(5));
  // Two pilots running (one per node), queue back at 20.
  EXPECT_EQ(manager.active_pilots(), 2u);
  EXPECT_EQ(manager.queued(), 20u);
  // Their Slurm records are variable-length.
  std::size_t running_var = 0;
  for (slurm::JobId id = 1; id < 30; ++id) {
    if (!f.ctld.is_known(id)) break;
    const auto& rec = f.ctld.job(id);
    if (rec.is_active()) {
      EXPECT_EQ(rec.spec.time_min, SimTime::minutes(2));
      EXPECT_EQ(rec.spec.time_limit, SimTime::minutes(120));
      ++running_var;
    }
  }
  EXPECT_EQ(running_var, 2u);
}

TEST(JobManager, PreemptedPilotCountsAndServingDurations) {
  Fixture f{1};
  JobManager::Config cfg;
  cfg.fib_lengths = {SimTime::minutes(90)};
  cfg.fib_per_length = 1;
  cfg.warmup_median_s = 5.0;
  cfg.warmup_p95_s = 8.0;
  auto manager = f.make_manager(cfg);
  manager.start();
  f.sim.run_until(SimTime::minutes(5));
  ASSERT_EQ(manager.active_pilots(), 1u);
  // An HPC job evicts the pilot.
  slurm::JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = 1;
  spec.time_limit = SimTime::minutes(10);
  spec.actual_runtime = SimTime::minutes(10);
  f.ctld.submit(spec);
  f.sim.run_until(SimTime::minutes(8));
  EXPECT_EQ(manager.counters().preempted, 1u);
  EXPECT_EQ(manager.active_pilots(), 0u);
  ASSERT_EQ(manager.serving_durations().size(), 1u);
  // Served from ~warmup end (~5 s) until eviction at minute 5.
  EXPECT_GT(manager.serving_durations()[0], SimTime::minutes(4));
  EXPECT_LT(manager.serving_durations()[0], SimTime::minutes(6));
}

TEST(JobManager, StopCancelsQueuedPilots) {
  Fixture f{1};
  JobManager::Config cfg;
  cfg.fib_lengths = {SimTime::minutes(10)};
  cfg.fib_per_length = 5;
  auto manager = f.make_manager(cfg);
  manager.start();
  f.sim.run_until(SimTime::minutes(1));
  EXPECT_GT(manager.queued(), 0u);
  manager.stop();
  EXPECT_EQ(manager.queued(), 0u);
  // The running pilot keeps serving.
  EXPECT_EQ(manager.active_pilots(), 1u);
  f.sim.run_until(SimTime::minutes(2));
  EXPECT_EQ(manager.queued(), 0u);  // no replenishment after stop
}

TEST(JobManager, WarmupDurationsRecorded) {
  Fixture f{2};
  auto manager = f.make_manager();
  manager.start();
  f.sim.run_until(SimTime::minutes(2));
  ASSERT_GE(manager.warmup_durations().size(), 2u);
  for (const auto w : manager.warmup_durations()) {
    EXPECT_GT(w, SimTime::zero());
    EXPECT_LT(w, SimTime::minutes(2));
  }
}

TEST(JobManager, PilotPreemptedBeforeStartExitsUnserved) {
  // A SIGTERM inside the launch latency reaches the manager before the
  // pilot exists. The pilot must exit at once and count as never served
  // — not warm up, serve, and get SIGKILLed at the grace deadline.
  Fixture f{1, SimTime::millis(200)};
  JobManager::Config cfg;
  cfg.fib_lengths = {SimTime::minutes(60)};
  cfg.fib_per_length = 1;
  auto manager = f.make_manager(cfg);
  manager.start();  // the pilot launches at t=0, its on_start at 0.2 s

  slurm::JobSpec hpc;
  hpc.partition = "hpc";
  hpc.num_nodes = 1;
  hpc.time_limit = SimTime::minutes(10);
  hpc.actual_runtime = SimTime::minutes(10);
  slurm::JobId h = 0;
  f.sim.at(SimTime::millis(100), [&] { h = f.ctld.submit(hpc); });
  f.sim.run_until(SimTime::minutes(1));

  ASSERT_NE(h, 0u);
  EXPECT_EQ(f.ctld.job(h).state, slurm::JobState::kRunning);
  EXPECT_LT(f.ctld.job(h).start_time, SimTime::seconds(1));
  const auto& c = manager.counters();
  EXPECT_EQ(c.started, 1u);
  EXPECT_EQ(c.preempted, 1u);
  EXPECT_EQ(c.hard_killed, 0u);
  EXPECT_EQ(manager.active_pilots(), 0u);
  EXPECT_EQ(manager.harvest().pilots_never_served, 1u);
  EXPECT_EQ(manager.harvest().pilots_served, 0u);
  EXPECT_TRUE(manager.serving_durations().empty());
}

}  // namespace
}  // namespace hpcwhisk::core
