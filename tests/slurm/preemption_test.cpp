// Preemption (PreemptMode=CANCEL) behaviour: tier-0 pilots yield to HPC
// jobs with SIGTERM + grace, the paper's central non-invasiveness
// mechanism ("HPC-Whisk jobs never significantly dislodge HPC jobs").

#include <gtest/gtest.h>

#include <functional>

#include "hpcwhisk/slurm/slurmctld.hpp"

namespace hpcwhisk::slurm {
namespace {

using sim::SimTime;
using sim::Simulation;

std::vector<Partition> partitions(SimTime grace = SimTime::minutes(3)) {
  Partition hpc;
  hpc.name = "hpc";
  hpc.priority_tier = 1;
  Partition pilot;
  pilot.name = "pilot";
  pilot.priority_tier = 0;
  pilot.preempt_mode = PreemptMode::kCancel;
  pilot.grace_time = grace;
  return {hpc, pilot};
}

Slurmctld::Config config(std::uint32_t nodes) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.launch_latency = SimTime::zero();
  cfg.min_pass_gap = SimTime::zero();  // tests exercise instant reaction
  return cfg;
}

JobSpec hpc(std::uint32_t nodes, SimTime limit, SimTime runtime) {
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = nodes;
  spec.time_limit = limit;
  spec.actual_runtime = runtime;
  return spec;
}

JobSpec pilot(SimTime limit) {
  JobSpec spec;
  spec.partition = "pilot";
  spec.num_nodes = 1;
  spec.time_limit = limit;
  spec.actual_runtime = SimTime::max();  // serves until terminated
  return spec;
}

TEST(Preemption, PilotRunsOnIdleNode) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  const JobId p = ctld.submit(pilot(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(p).state, JobState::kRunning);
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kPilot);
}

TEST(Preemption, HpcJobEvictsPilotWithSigterm) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  bool pilot_sigterm = false;
  auto p = pilot(SimTime::minutes(90));
  p.on_sigterm = [&](const JobRecord&) { pilot_sigterm = true; };
  const JobId pid = ctld.submit(p);
  sim.run_until(SimTime::minutes(5));
  ASSERT_EQ(ctld.job(pid).state, JobState::kRunning);

  const JobId h = ctld.submit(hpc(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(5) + SimTime::seconds(1));
  EXPECT_TRUE(pilot_sigterm);
  EXPECT_EQ(ctld.job(pid).state, JobState::kCompleting);
  // HPC job waits for the node; pilot killed at grace end -> HPC starts.
  sim.run_until(SimTime::minutes(9));
  EXPECT_EQ(ctld.job(pid).state, JobState::kPreempted);
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  // Delay bounded by the grace period (3 min).
  EXPECT_LE(ctld.job(h).start_time, SimTime::minutes(8) + SimTime::seconds(1));
}

TEST(Preemption, EarlyPilotExitShortensHpcDelay) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  auto p = pilot(SimTime::minutes(90));
  p.on_sigterm = [&](const JobRecord& rec) {
    // A well-behaved pilot drains in 2 seconds, not 3 minutes.
    const JobId id = rec.id;
    sim.after(SimTime::seconds(2), [&ctld, id] { ctld.job_exited(id); });
  };
  ctld.submit(p);
  sim.run_until(SimTime::minutes(5));
  const JobId h = ctld.submit(hpc(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(6));
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_LE(ctld.job(h).start_time - ctld.job(h).submit_time,
            SimTime::seconds(3));
}

TEST(Preemption, PilotNeverDelaysQueuedHpcJob) {
  // The core invariant: with pilots present, HPC start times must be no
  // later than the pilot drain time, and pilots only ever use idle nodes.
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  // Fill one node with HPC work, the other gets a pilot.
  ctld.submit(hpc(1, SimTime::minutes(30), SimTime::minutes(30)));
  const JobId p = ctld.submit(pilot(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(p).state, JobState::kRunning);
  // Now a 2-node HPC job arrives: needs the pilot's node AND the busy one.
  const JobId h = ctld.submit(hpc(2, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(40));
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  // Without the pilot, H would start at t=30 (when the HPC job ends).
  // With the pilot, it must start no later than 30 + grace.
  EXPECT_LE(ctld.job(h).start_time, SimTime::minutes(33) + SimTime::seconds(1));
}

TEST(Preemption, PilotTimesOutAtOwnLimitWithGrace) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  bool sigterm = false;
  auto p = pilot(SimTime::minutes(10));
  p.on_sigterm = [&](const JobRecord& rec) {
    sigterm = true;
    const JobId id = rec.id;
    sim.after(SimTime::seconds(1), [&ctld, id] { ctld.job_exited(id); });
  };
  const JobId pid = ctld.submit(p);
  sim.run_until(SimTime::minutes(30));
  EXPECT_TRUE(sigterm);
  // Exited during a time-limit grace: state is TIMEOUT, at limit+1s.
  EXPECT_EQ(ctld.job(pid).state, JobState::kTimedOut);
  EXPECT_EQ(ctld.job(pid).end_time,
            SimTime::minutes(10) + SimTime::seconds(1));
}

TEST(Preemption, NonPreemptiblePartitionIsNeverEvicted) {
  Simulation sim;
  // Two HPC tiers, neither preemptible.
  Partition t1;
  t1.name = "t1";
  t1.priority_tier = 1;
  Partition t2;
  t2.name = "t2";
  t2.priority_tier = 2;
  Slurmctld ctld{sim, config(1), {t1, t2}};
  JobSpec low;
  low.partition = "t1";
  low.num_nodes = 1;
  low.time_limit = SimTime::minutes(30);
  low.actual_runtime = SimTime::minutes(30);
  const JobId l = ctld.submit(low);
  sim.run_until(SimTime::minutes(1));
  JobSpec high = low;
  high.partition = "t2";
  high.time_limit = SimTime::minutes(5);
  high.actual_runtime = SimTime::minutes(5);
  const JobId h = ctld.submit(high);
  sim.run_until(SimTime::minutes(20));
  // The higher-tier job must WAIT (no preemption without CANCEL mode).
  EXPECT_EQ(ctld.job(l).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(h).state, JobState::kPending);
  sim.run_until(SimTime::minutes(40));
  EXPECT_EQ(ctld.job(h).state, JobState::kCompleted);
}

TEST(Preemption, MultiplePilotsEvictedForMultiNodeJob) {
  Simulation sim;
  Slurmctld ctld{sim, config(3), partitions()};
  std::vector<JobId> pilots;
  int sigterms = 0;
  for (int i = 0; i < 3; ++i) {
    auto p = pilot(SimTime::minutes(90));
    p.on_sigterm = [&sigterms, &ctld, &sim](const JobRecord& rec) {
      ++sigterms;
      const JobId id = rec.id;
      sim.after(SimTime::seconds(2), [&ctld, id] { ctld.job_exited(id); });
    };
    pilots.push_back(ctld.submit(p));
  }
  sim.run_until(SimTime::minutes(2));
  const JobId h = ctld.submit(hpc(3, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(3));
  EXPECT_EQ(sigterms, 3);
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_EQ(ctld.counters().preempted, 3u);
}

TEST(Preemption, HoleFittingPolicyRejectsOversizedPilot) {
  Simulation sim;
  auto cfg = config(2);
  cfg.pilot_placement = PilotPlacement::kHoleFitting;
  Slurmctld ctld{sim, cfg, partitions()};
  // One node busy for 20 min; head blocked 2-node job reserves both at 20.
  ctld.submit(hpc(1, SimTime::minutes(20), SimTime::minutes(20)));
  sim.run_until(SimTime::minutes(1));
  ctld.submit(hpc(2, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(2));
  // 90-min pilot does not fit the <=18-min hole; an 8-min one does.
  const JobId big = ctld.submit(pilot(SimTime::minutes(90)));
  const JobId small = ctld.submit(pilot(SimTime::minutes(8)));
  sim.run_until(SimTime::minutes(4));
  EXPECT_EQ(ctld.job(big).state, JobState::kPending);
  EXPECT_EQ(ctld.job(small).state, JobState::kRunning);
}

TEST(Preemption, PreemptAwarePolicyPlacesOversizedPilot) {
  Simulation sim;
  auto cfg = config(2);
  cfg.pilot_placement = PilotPlacement::kPreemptAware;
  Slurmctld ctld{sim, cfg, partitions()};
  ctld.submit(hpc(1, SimTime::minutes(20), SimTime::minutes(20)));
  sim.run_until(SimTime::minutes(1));
  ctld.submit(hpc(2, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(2));
  const JobId big = ctld.submit(pilot(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(4));
  // Faithful Slurm-with-CANCEL behaviour: the pilot starts anyway and
  // will simply be preempted when the reservation materializes.
  EXPECT_EQ(ctld.job(big).state, JobState::kRunning);
}

// An HPC job can claim a node whose pilot then sits in its preemption
// grace. If that node fails with a grace window or is drained meanwhile,
// the pilot's exit takes the node out of service instead of handing it
// to the claimant. The claimant must be requeued and placed elsewhere —
// not left waiting for a node that will never come back.
void expect_claimant_requeued(const std::function<void(Slurmctld&)>& knock_out) {
  Simulation sim;
  Slurmctld ctld{sim, config(3), partitions()};
  for (int i = 0; i < 3; ++i) ctld.submit(pilot(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(1));
  ASSERT_EQ(ctld.observed_state(0), ObservedNodeState::kPilot);

  const JobId h = ctld.submit(hpc(2, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(1) + SimTime::seconds(1));
  ASSERT_EQ(ctld.running_count(), 3u);
  ASSERT_EQ(ctld.job(h).state, JobState::kPending);  // claim placed
  // All pilots started together: the claim takes nodes 0 and 1.
  knock_out(ctld);

  sim.run_until(SimTime::minutes(15));
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kDown);
  ASSERT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(h).nodes.size(), 2u);
  for (const NodeId n : ctld.job(h).nodes) EXPECT_NE(n, 0u);
  // Requeued when the victims left (t=4 min), then one more grace for
  // the pilot on the replacement node.
  EXPECT_LE(ctld.job(h).start_time, SimTime::minutes(8));
}

TEST(Preemption, ClaimOnFailedNodeRequeuesClaimant) {
  expect_claimant_requeued(
      [](Slurmctld& ctld) { ctld.fail_node(0, SimTime::seconds(60)); });
}

TEST(Preemption, ClaimOnDrainedNodeRequeuesClaimant) {
  expect_claimant_requeued([](Slurmctld& ctld) { ctld.drain_node(0); });
}

}  // namespace
}  // namespace hpcwhisk::slurm
