// Per-TRES scheduling (fidelity.tres_mode): nodes carry a {cpus, mem}
// capacity vector, jobs request fractions of it, and the scheduler packs
// jobs onto partial nodes — so one node can host prime HPC work AND a
// pilot simultaneously (fractional-node harvesting), the generalization
// the fidelity bench measures. Also covers advance reservations, which
// exist only in TRES mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"
#include "hpcwhisk/slurm/tres.hpp"

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

Slurmctld::Config tres_config(std::uint32_t nodes,
                              TresVector capacity = {8, 32000, 0}) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.launch_latency = SimTime::zero();
  cfg.min_pass_gap = SimTime::zero();
  cfg.fidelity.tres_mode = true;
  cfg.fidelity.node_capacity = capacity;
  return cfg;
}

JobSpec hpc_job(std::uint32_t nodes, SimTime limit, SimTime runtime,
                TresVector tres = {}) {
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = nodes;
  spec.time_limit = limit;
  spec.actual_runtime = runtime;
  spec.tres_per_node = tres;
  return spec;
}

JobSpec pilot_job(SimTime limit, TresVector tres = {}) {
  JobSpec spec;
  spec.partition = "pilot";
  spec.num_nodes = 1;
  spec.time_limit = limit;
  spec.actual_runtime = SimTime::max();
  spec.tres_per_node = tres;
  return spec;
}

TEST(TresVectorOps, ComponentwiseArithmeticAndFit) {
  TresVector a{4, 16000, 0};
  const TresVector b{2, 8000, 0};
  EXPECT_TRUE(b.fits_within(a));
  EXPECT_FALSE(a.fits_within(b));
  EXPECT_EQ(a + b, (TresVector{6, 24000, 0}));
  EXPECT_EQ(a - b, (TresVector{2, 8000, 0}));
  a -= b;
  EXPECT_EQ(a, (TresVector{2, 8000, 0}));
  EXPECT_FALSE(a.is_zero());
  EXPECT_TRUE(TresVector{}.is_zero());
  // One axis over is enough to not fit.
  EXPECT_FALSE((TresVector{1, 99999, 0}).fits_within(a));
  EXPECT_NE(a.to_string().find("cpu=2"), std::string::npos);
}

TEST(TresVectorOps, SubtractionSaturatesInsteadOfWrapping) {
  TresVector a{1, 1000, 0};
  a -= TresVector{3, 4000, 2};
  EXPECT_TRUE(a.is_zero());
}

TEST(Tres, WholeNodeRequestSubstitutesCapacity) {
  Simulation sim;
  Slurmctld ctld{sim, tres_config(1), partitions()};
  const JobId id =
      ctld.submit(hpc_job(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(id).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(id).spec.tres_per_node, (TresVector{8, 32000, 0}));
  EXPECT_TRUE(ctld.node_free(0).is_zero());
}

TEST(Tres, OversizedRequestIsRejected) {
  Simulation sim;
  Slurmctld ctld{sim, tres_config(1), partitions()};
  EXPECT_THROW(ctld.submit(hpc_job(1, SimTime::minutes(10),
                                   SimTime::minutes(10), {9, 1000, 0})),
               std::invalid_argument);
}

TEST(Tres, HpcJobAndPilotCoResideOnOneNode) {
  // The tentpole behavior: a half-node HPC job leaves TRES room and the
  // scheduler places a pilot on the *same* node instead of leaving the
  // remainder idle.
  Simulation sim;
  Slurmctld ctld{sim, tres_config(1), partitions()};
  const JobId h = ctld.submit(
      hpc_job(1, SimTime::minutes(30), SimTime::minutes(30), {4, 16000, 0}));
  const JobId p = ctld.submit(pilot_job(SimTime::minutes(20), {2, 8000, 0}));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(p).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(h).nodes, ctld.job(p).nodes);
  EXPECT_EQ(ctld.node_free(0), (TresVector{2, 8000, 0}));
  // Prime HPC work dominates the observed role of a shared node.
  EXPECT_EQ(ctld.observed_state(0), ObservedNodeState::kHpc);
}

TEST(Tres, MultiNodeJobAllocatesTresOnEveryNode) {
  Simulation sim;
  Slurmctld ctld{sim, tres_config(3), partitions()};
  const JobId id = ctld.submit(
      hpc_job(3, SimTime::minutes(20), SimTime::minutes(20), {6, 24000, 0}));
  sim.run_until(SimTime::minutes(1));
  ASSERT_EQ(ctld.job(id).state, JobState::kRunning);
  ASSERT_EQ(ctld.job(id).nodes.size(), 3u);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(ctld.node_free(n), (TresVector{2, 8000, 0}));
  }
  const auto totals = ctld.tres_totals();
  EXPECT_EQ(totals.capacity, (TresVector{24, 96000, 0}));
  EXPECT_EQ(totals.hpc, (TresVector{18, 72000, 0}));
  EXPECT_TRUE(totals.pilot.is_zero());
}

TEST(Tres, PreemptionFreesTresForHigherTier) {
  // Pilot holds 6 of 8 cpus; a whole-node HPC job preempts it (tier 1 >
  // tier 0) and takes over after the grace window.
  Simulation sim;
  Slurmctld ctld{sim, tres_config(1), partitions()};
  const JobId p = ctld.submit(pilot_job(SimTime::minutes(90), {6, 24000, 0}));
  sim.run_until(SimTime::minutes(2));
  ASSERT_EQ(ctld.job(p).state, JobState::kRunning);

  const JobId h =
      ctld.submit(hpc_job(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(2) + SimTime::seconds(1));
  EXPECT_EQ(ctld.job(p).state, JobState::kCompleting);  // SIGTERM'd
  sim.run_until(SimTime::minutes(6));
  EXPECT_EQ(ctld.job(p).state, JobState::kPreempted);
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_TRUE(ctld.node_free(0).is_zero());
}

TEST(Tres, NoPreemptionWhenRequestsFitSideBySide) {
  // A small HPC job must NOT evict the pilot if both fit: co-residency
  // beats preemption.
  Simulation sim;
  Slurmctld ctld{sim, tres_config(1), partitions()};
  const JobId p = ctld.submit(pilot_job(SimTime::minutes(90), {2, 8000, 0}));
  sim.run_until(SimTime::minutes(2));
  ASSERT_EQ(ctld.job(p).state, JobState::kRunning);
  const JobId h = ctld.submit(
      hpc_job(1, SimTime::minutes(10), SimTime::minutes(10), {4, 16000, 0}));
  sim.run_until(SimTime::minutes(3));
  EXPECT_EQ(ctld.job(h).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(p).state, JobState::kRunning);
  EXPECT_EQ(ctld.counters().preempted, 0u);
}

TEST(Reservation, WindowBlocksLaunchesThatWouldOverlap) {
  Simulation sim;
  auto cfg = tres_config(1);
  Reservation r;
  r.name = "maint";
  r.start = SimTime::minutes(10);
  r.end = SimTime::minutes(20);
  r.nodes = {0};
  cfg.fidelity.reservations.push_back(r);
  Slurmctld ctld{sim, cfg, partitions()};
  // limit (8) + hpc grace (3) reaches past the window start: no launch
  // before the window, so the job waits until the window closes.
  const JobId id =
      ctld.submit(hpc_job(1, SimTime::minutes(8), SimTime::minutes(5)));
  sim.run_until(SimTime::minutes(9));
  EXPECT_EQ(ctld.job(id).state, JobState::kPending);
  sim.run_until(SimTime::minutes(21));
  EXPECT_EQ(ctld.job(id).state, JobState::kRunning);
  EXPECT_GE(ctld.job(id).start_time, r.end);
}

TEST(Reservation, ShortJobSlipsInAheadOfWindow) {
  Simulation sim;
  auto cfg = tres_config(1);
  Reservation r;
  r.name = "maint";
  r.start = SimTime::minutes(10);
  r.end = SimTime::minutes(20);
  r.nodes = {0};
  cfg.fidelity.reservations.push_back(r);
  Slurmctld ctld{sim, cfg, partitions()};
  // 5 min limit + 3 min grace = 8 min < 10: fits before the window.
  const JobId id =
      ctld.submit(hpc_job(1, SimTime::minutes(5), SimTime::minutes(4)));
  sim.run_until(SimTime::minutes(1));
  EXPECT_EQ(ctld.job(id).state, JobState::kRunning);
}

TEST(Reservation, OpeningWindowPreemptsRunningWorkAndParksNode) {
  Simulation sim;
  Slurmctld ctld{sim, tres_config(2), partitions()};
  // Two pilots fill both nodes; the reservation is registered only after
  // they launched (a config-time window would have fenced the reserved
  // node off and the pilot would never have started there).
  const JobId p0 = ctld.submit(pilot_job(SimTime::minutes(90)));
  const JobId p1 = ctld.submit(pilot_job(SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(1));
  ASSERT_EQ(ctld.job(p0).state, JobState::kRunning);
  ASSERT_EQ(ctld.job(p1).state, JobState::kRunning);

  Reservation r;
  r.name = "maint";
  r.start = SimTime::minutes(5);
  r.end = SimTime::minutes(15);
  r.nodes = {0};
  ctld.add_reservation(r);

  // Window opens: the reserved node's pilot is SIGTERM'd and gone within
  // the 3-minute grace; the node leaves both supplies.
  sim.run_until(SimTime::minutes(9));
  const NodeId reserved = 0;
  const JobId on_reserved =
      ctld.job(p0).nodes.front() == reserved ? p0 : p1;
  const JobId elsewhere = on_reserved == p0 ? p1 : p0;
  EXPECT_EQ(ctld.job(on_reserved).state, JobState::kPreempted);
  EXPECT_EQ(ctld.job(elsewhere).state, JobState::kRunning);
  EXPECT_EQ(ctld.observed_state(reserved), ObservedNodeState::kDown);

  // Window closes: the node returns to service and a queued pilot can
  // use it again.
  const JobId p2 = ctld.submit(pilot_job(SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(16));
  EXPECT_EQ(ctld.job(p2).state, JobState::kRunning);
  EXPECT_NE(ctld.observed_state(reserved), ObservedNodeState::kDown);
}

TEST(Reservation, RequiresTresMode) {
  Simulation sim;
  Slurmctld::Config cfg;
  cfg.node_count = 1;
  Slurmctld ctld{sim, cfg, partitions()};
  Reservation r;
  r.name = "maint";
  r.start = SimTime::minutes(5);
  r.end = SimTime::minutes(10);
  r.nodes = {0};
  EXPECT_THROW(ctld.add_reservation(r), std::invalid_argument);
}

// Whole-node allocation is the full-capacity case of TRES packing: the
// same fault-free job stream fed to a legacy cluster and to a TRES
// cluster whose every job requests the full node capacity must produce
// the same job records (start, nodes, granted limit, end, end state).
// The stream mixes fixed and variable multi-node HPC jobs with fixed and
// variable pilots under production pass cadence, so ties in node order,
// backfill reservations, var sizing and preemption all get exercised.
struct TimedSubmit {
  SimTime at;
  JobSpec spec;
};

std::vector<TimedSubmit> mixed_stream(std::uint64_t seed, SimTime horizon) {
  sim::Rng rng{seed};
  std::vector<TimedSubmit> out;
  for (SimTime t = SimTime::zero(); t < horizon; t += SimTime::minutes(5)) {
    for (int i = 0; i < 3; ++i) {
      JobSpec fixed = pilot_job(SimTime::minutes(rng.uniform_int(2, 40)));
      fixed.priority = rng.uniform_int(0, 5);
      out.push_back({t, fixed});
    }
    JobSpec var = pilot_job(SimTime::minutes(60));
    var.time_min = SimTime::minutes(4);
    out.push_back({t, var});
  }
  for (SimTime t = SimTime::seconds(rng.exponential(40.0)); t < horizon;
       t += SimTime::seconds(rng.exponential(40.0))) {
    const double limit_min = static_cast<double>(rng.uniform_int(6, 60));
    JobSpec spec = hpc_job(static_cast<std::uint32_t>(rng.uniform_int(1, 8)),
                           SimTime::minutes(limit_min),
                           SimTime::minutes(limit_min * rng.uniform(0.3, 1.0)));
    spec.priority = rng.uniform_int(0, 3);
    if (rng.bernoulli(0.2)) {
      spec.time_min = SimTime::minutes(4);
      spec.actual_runtime = SimTime::max();
    }
    out.push_back({t, spec});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TimedSubmit& a, const TimedSubmit& b) {
                     return a.at < b.at;
                   });
  return out;
}

std::vector<JobRecord> replay(Slurmctld::Config cfg,
                              const std::vector<TimedSubmit>& stream,
                              TresVector request, SimTime horizon) {
  Simulation sim;
  Slurmctld ctld{sim, cfg, partitions()};
  for (const TimedSubmit& s : stream) {
    JobSpec spec = s.spec;
    spec.tres_per_node = request;
    sim.at(s.at, [&ctld, spec] { ctld.submit(spec); });
  }
  sim.run_until(horizon);
  std::vector<JobRecord> out;
  ctld.for_each_job([&out](const JobRecord& rec) { out.push_back(rec); });
  return out;
}

TEST(Tres, WholeNodeRequestsReproduceLegacyDecisions) {
  const SimTime horizon = SimTime::hours(3);
  const auto stream = mixed_stream(11, horizon);
  Slurmctld::Config legacy;  // production pass cadence and launch latency
  legacy.node_count = 32;
  Slurmctld::Config tres = legacy;
  tres.fidelity.tres_mode = true;
  tres.fidelity.node_capacity = {8, 32000, 0};

  const auto a = replay(legacy, stream, {}, horizon);
  const auto b = replay(tres, stream, tres.fidelity.node_capacity, horizon);
  ASSERT_EQ(a.size(), b.size());
  std::size_t preempted = 0;
  std::size_t started = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(a[i].id) + " (" +
                 a[i].spec.partition + ")");
    ASSERT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].state, b[i].state);
    EXPECT_EQ(a[i].start_time, b[i].start_time);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].granted_limit, b[i].granted_limit);
    EXPECT_EQ(a[i].end_time, b[i].end_time);
    preempted += a[i].state == JobState::kPreempted ? 1 : 0;
    started += a[i].nodes.empty() ? 0 : 1;
  }
  // The stream must actually exercise preemption and a busy cluster.
  EXPECT_GT(preempted, 10u);
  EXPECT_GT(started, 100u);
}

}  // namespace
}  // namespace hpcwhisk::slurm
