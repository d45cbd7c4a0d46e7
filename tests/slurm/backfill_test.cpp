// EASY-backfill behaviour: reservations for the head blocked job, safe
// backfilling of short jobs, variable-length sizing, and the invariant
// the paper relies on — tier-0 pilots never delay HPC work. Also the
// planning timeline's earliest-free selection, against the full-scan
// selection it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "hpcwhisk/slurm/planning_timeline.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"

namespace hpcwhisk::slurm {
namespace {

using sim::SimTime;
using sim::Simulation;

std::vector<Partition> partitions() {
  Partition hpc;
  hpc.name = "hpc";
  hpc.priority_tier = 1;
  Partition pilot;
  pilot.name = "pilot";
  pilot.priority_tier = 0;
  pilot.preempt_mode = PreemptMode::kCancel;
  pilot.grace_time = SimTime::minutes(3);
  return {hpc, pilot};
}

Slurmctld::Config config(std::uint32_t nodes) {
  Slurmctld::Config cfg;
  cfg.node_count = nodes;
  cfg.launch_latency = SimTime::zero();
  cfg.min_pass_gap = SimTime::zero();  // tests exercise instant reaction
  return cfg;
}

JobSpec job(std::uint32_t nodes, SimTime limit, SimTime runtime) {
  JobSpec spec;
  spec.partition = "hpc";
  spec.num_nodes = nodes;
  spec.time_limit = limit;
  spec.actual_runtime = runtime;
  return spec;
}

TEST(Backfill, ShortJobBackfillsAroundBlockedHead) {
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  // Job A occupies both nodes for 60 min.
  ctld.submit(job(2, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(1));
  // Job B (head, blocked): needs 2 nodes -> reserved at A's limit.
  const JobId blocked =
      ctld.submit(job(2, SimTime::minutes(30), SimTime::minutes(30)));
  // Job C: 1 node, 20 min — would fit *before* the reservation only if a
  // node were free; both are busy, so C cannot backfill here.
  const JobId c =
      ctld.submit(job(1, SimTime::minutes(20), SimTime::minutes(20)));
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(ctld.job(blocked).state, JobState::kPending);
  EXPECT_EQ(ctld.job(c).state, JobState::kPending);
}

TEST(Backfill, BackfillDoesNotDelayReservation) {
  Simulation sim;
  Slurmctld ctld{sim, config(2), partitions()};
  // A: node-hogging job on 1 node for 60 min.
  ctld.submit(job(1, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(1));
  // B (head, blocked): needs both nodes; reservation at t=60min.
  const JobId b = ctld.submit(job(2, SimTime::minutes(30), SimTime::minutes(30)));
  // C: 1 node, limit 30 min — fits on the idle node before t=60. Backfills.
  const JobId c = ctld.submit(job(1, SimTime::minutes(30), SimTime::minutes(10)));
  // D: 1 node, limit 90 min — would overlap the reservation. Must wait.
  const JobId d = ctld.submit(job(1, SimTime::minutes(90), SimTime::minutes(90)));
  sim.run_until(SimTime::minutes(2));
  EXPECT_EQ(ctld.job(c).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(d).state, JobState::kPending);
  EXPECT_EQ(ctld.job(b).state, JobState::kPending);
  // B starts once A (and C) end: at t=60 both nodes are free.
  sim.run_until(SimTime::minutes(61));
  EXPECT_EQ(ctld.job(b).state, JobState::kRunning);
  // B must not have been delayed past the reservation time.
  EXPECT_LE(ctld.job(b).start_time, SimTime::minutes(61));
}

TEST(Backfill, ReservationUsesDeclaredLimitNotRuntime) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  // A declares 60 min but really runs 10 — the scheduler cannot know.
  ctld.submit(job(1, SimTime::minutes(60), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(1));
  const JobId b = ctld.submit(job(1, SimTime::minutes(30), SimTime::minutes(5)));
  sim.run_until(SimTime::minutes(5));
  EXPECT_EQ(ctld.job(b).state, JobState::kPending);
  // When A ends early, the event-driven pass starts B immediately.
  sim.run_until(SimTime::minutes(11));
  EXPECT_EQ(ctld.job(b).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(b).start_time, SimTime::minutes(10));
}

TEST(Backfill, VariableLengthHpcJobSizedToReservation) {
  Simulation sim;
  auto cfg = config(2);
  cfg.var_jobs_periodic_only = false;
  Slurmctld ctld{sim, cfg, partitions()};
  ctld.submit(job(1, SimTime::minutes(60), SimTime::minutes(60)));
  sim.run_until(SimTime::minutes(2));
  // Head blocked job -> reservation on both nodes at t=60.
  ctld.submit(job(2, SimTime::minutes(30), SimTime::minutes(30)));
  // Variable job: accepts 10..120 min. Should be granted ~58 min
  // (reservation at 60 minus now=2, floored to 2-min slots).
  JobSpec var = job(1, SimTime::minutes(120), SimTime::max());
  var.time_min = SimTime::minutes(10);
  const JobId v = ctld.submit(var);
  sim.run_until(SimTime::minutes(3));
  ASSERT_EQ(ctld.job(v).state, JobState::kRunning);
  EXPECT_EQ(ctld.job(v).granted_limit, SimTime::minutes(58));
}

TEST(Backfill, JobBeyondWindowGetsNoReservationButEventuallyRuns) {
  Simulation sim;
  auto cfg = config(1);
  cfg.backfill_window = SimTime::minutes(120);
  Slurmctld ctld{sim, cfg, partitions()};
  // A runs (declares) 3 hours: beyond the backfill window.
  ctld.submit(job(1, SimTime::hours(3), SimTime::hours(3)));
  sim.run_until(SimTime::minutes(1));
  const JobId b = ctld.submit(job(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::hours(2));
  EXPECT_EQ(ctld.job(b).state, JobState::kPending);
  sim.run_until(SimTime::hours(3) + SimTime::minutes(15));
  EXPECT_EQ(ctld.job(b).state, JobState::kCompleted);
}

TEST(Backfill, HigherPriorityWithinTierGoesFirst) {
  Simulation sim;
  Slurmctld ctld{sim, config(1), partitions()};
  ctld.submit(job(1, SimTime::minutes(10), SimTime::minutes(10)));
  sim.run_until(SimTime::minutes(1));
  JobSpec low = job(1, SimTime::minutes(10), SimTime::minutes(10));
  low.priority = 1;
  JobSpec high = job(1, SimTime::minutes(10), SimTime::minutes(10));
  high.priority = 5;
  const JobId l = ctld.submit(low);
  const JobId h = ctld.submit(high);
  sim.run_until(SimTime::hours(1));
  EXPECT_LT(ctld.job(h).start_time, ctld.job(l).start_time);
}

TEST(Backfill, BackfillDepthLimitsExamination) {
  Simulation sim;
  auto cfg = config(1);
  cfg.backfill_depth = 2;
  Slurmctld ctld{sim, cfg, partitions()};
  ctld.submit(job(1, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(1));
  // Three queued jobs; with depth 2 the third is not examined this pass,
  // but later passes (after completions) still pick it up.
  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(job({}, {}, {}).num_nodes ? 0 : 0);  // placeholder
  ids.clear();
  for (int i = 0; i < 3; ++i)
    ids.push_back(ctld.submit(job(1, SimTime::minutes(10), SimTime::minutes(10))));
  sim.run_until(SimTime::hours(2));
  for (const JobId id : ids)
    EXPECT_EQ(ctld.job(id).state, JobState::kCompleted);
}

TEST(Backfill, FarReservationIsSkippedAndNarrowerJobStillReserves) {
  Simulation sim;
  auto cfg = config(4);
  cfg.backfill_window = SimTime::minutes(60);
  Slurmctld ctld{sim, cfg, partitions()};
  // A holds two nodes until t=200 min, B one node until t=40 min.
  ctld.submit(job(2, SimTime::minutes(200), SimTime::minutes(200)));
  ctld.submit(job(1, SimTime::minutes(40), SimTime::minutes(40)));
  sim.run_until(SimTime::minutes(1));
  // J1 needs all four nodes; the fourth frees at t=200, beyond the
  // window, so J1 books nothing. J2 then books the idle node and B's
  // node from t=40, which keeps C (60 min) off the idle node while D
  // (30 min) still fits before the reservation.
  const JobId j1 = ctld.submit(job(4, SimTime::minutes(10), SimTime::minutes(10)));
  const JobId j2 = ctld.submit(job(2, SimTime::minutes(100), SimTime::minutes(100)));
  const JobId c = ctld.submit(job(1, SimTime::minutes(60), SimTime::minutes(60)));
  const JobId d = ctld.submit(job(1, SimTime::minutes(30), SimTime::minutes(30)));
  sim.run_until(SimTime::minutes(2));
  EXPECT_EQ(ctld.job(j1).state, JobState::kPending);
  EXPECT_EQ(ctld.job(j2).state, JobState::kPending);
  EXPECT_EQ(ctld.job(c).state, JobState::kPending);
  EXPECT_EQ(ctld.job(d).state, JobState::kRunning);
}

// --- PlanningTimeline --------------------------------------------------

SimTime m(std::int64_t minutes) { return SimTime::minutes(minutes); }

PlanningTimeline timeline_of(const std::vector<SimTime>& free_at) {
  PlanningTimeline t;
  t.reset() = free_at;
  return t;
}

TEST(PlanningTimeline, TiesGoToTheLowestNodeIds) {
  std::vector<NodeId> booked;
  PlanningTimeline t = timeline_of({m(5), m(5), m(5), m(5)});
  EXPECT_EQ(t.reserve(2, m(60), m(30), booked), m(5));
  EXPECT_EQ(booked, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(t.free_at(0), m(35));
  EXPECT_EQ(t.reserve(2, m(60), m(30), booked), m(5));
  EXPECT_EQ(booked, (std::vector<NodeId>{2, 3}));
}

TEST(PlanningTimeline, DownNodesAreNeverReserved) {
  std::vector<NodeId> booked;
  const SimTime down = SimTime::max();
  PlanningTimeline t = timeline_of({down, m(3), down, m(1), m(2)});
  EXPECT_EQ(t.reserve(3, m(60), m(10), booked), m(3));
  EXPECT_EQ(booked, (std::vector<NodeId>{3, 4, 1}));
  // Only three nodes are ever free: a four-node job books nothing.
  EXPECT_EQ(t.reserve(4, SimTime::max(), m(10), booked), std::nullopt);
  EXPECT_TRUE(booked.empty());
  EXPECT_EQ(t.free_at(0), down);
  EXPECT_EQ(t.free_at(2), down);
  EXPECT_EQ(t.reserve(3, m(60), m(10), booked), m(13));
}

TEST(PlanningTimeline, FarReservationChangesNothing) {
  std::vector<NodeId> booked;
  PlanningTimeline t = timeline_of({m(0), m(10), m(200)});
  // The third node frees beyond `latest`: no booking, and the popped
  // entries go back so a narrower job still gets the earliest nodes.
  EXPECT_EQ(t.reserve(3, m(60), m(30), booked), std::nullopt);
  EXPECT_EQ(t.free_at(0), m(0));
  EXPECT_EQ(t.free_at(1), m(10));
  EXPECT_EQ(t.reserve(2, m(60), m(30), booked), m(10));
  EXPECT_EQ(booked, (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(t.free_at(0), m(40));
  EXPECT_EQ(t.free_at(1), m(40));
}

TEST(PlanningTimeline, LaunchMidTierPushesNodesLater) {
  std::vector<NodeId> booked;
  PlanningTimeline t = timeline_of({m(0), m(0), m(10), m(20)});
  EXPECT_EQ(t.reserve(1, m(60), m(50), booked), m(0));  // builds the heap
  EXPECT_EQ(booked, (std::vector<NodeId>{0}));
  t.occupy(1, m(100));
  t.occupy(2, m(100));
  t.occupy(3, m(5));  // earlier than its value: no change
  EXPECT_EQ(t.free_at(3), m(20));
  // Nodes 1 and 2 now free at t=100; their old entries are skipped.
  EXPECT_EQ(t.reserve(2, m(60), m(10), booked), m(50));
  EXPECT_EQ(booked, (std::vector<NodeId>{3, 0}));
}

// The selection the heap replaced: the k smallest (free_at, id) pairs of
// every node ever free, by nth_element over a full scan.
std::optional<SimTime> reference_reserve(std::vector<SimTime>& free_at,
                                         std::uint32_t k, SimTime latest,
                                         SimTime length,
                                         std::vector<NodeId>& picked) {
  picked.clear();
  std::vector<std::pair<SimTime, NodeId>> horizon;
  for (NodeId n = 0; n < free_at.size(); ++n) {
    if (free_at[n] != SimTime::max()) horizon.emplace_back(free_at[n], n);
  }
  if (horizon.size() < k) return std::nullopt;
  std::nth_element(horizon.begin(), horizon.begin() + (k - 1), horizon.end());
  const SimTime start = horizon[k - 1].first;
  if (start > latest) return std::nullopt;
  for (std::uint32_t i = 0; i < k; ++i) {
    picked.push_back(horizon[i].second);
    free_at[horizon[i].second] = start + length;
  }
  return start;
}

TEST(PlanningTimeline, MatchesFullScanSelectionOnRandomTimelines) {
  std::mt19937_64 rng{20221114};
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  PlanningTimeline t;  // reused across tiers, as in a scheduling pass
  std::vector<NodeId> have;
  std::vector<NodeId> want;
  for (int tier = 0; tier < 400; ++tier) {
    // Few distinct values, so ties are common; some nodes are down.
    const auto nodes = static_cast<NodeId>(pick(1, 48));
    std::vector<SimTime> ref(nodes);
    for (SimTime& v : ref)
      v = pick(0, 9) == 0 ? SimTime::max() : m(pick(0, 12) * 5);
    t.reset() = ref;
    for (int op = 0; op < 40; ++op) {
      if (pick(0, 2) == 0) {
        const auto n = static_cast<NodeId>(pick(0, nodes - 1));
        const SimTime until = m(pick(0, 120));
        t.occupy(n, until);
        ref[n] = std::max(ref[n], until);
      } else {
        const auto k = static_cast<std::uint32_t>(pick(1, nodes));
        const SimTime latest = m(pick(0, 150));
        const SimTime length = m(pick(0, 4) * 15);
        const std::optional<SimTime> got = t.reserve(k, latest, length, have);
        ASSERT_EQ(got, reference_reserve(ref, k, latest, length, want))
            << "tier " << tier << " op " << op;
        std::sort(have.begin(), have.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(have, want) << "tier " << tier << " op " << op;
      }
      for (NodeId n = 0; n < nodes; ++n) ASSERT_EQ(t.free_at(n), ref[n]);
    }
  }
}

}  // namespace
}  // namespace hpcwhisk::slurm
