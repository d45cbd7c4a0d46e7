// Differential test of the scheduler's maintained node index: the pass
// cache (best-fit open list, preemptable nodes with their residents) and
// the per-tier release timelines, kept up to date across passes from the
// nodes that changed. Randomized transition sequences drive a Slurmctld
// through launches, completions, time limits, cancels, preemption claims,
// drain/down/up and rolling reservations; after every step the maintained
// structures must equal what the from-scratch builders they replaced
// compute (kept here, and only here, as the reference).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "hpcwhisk/slurm/planning_timeline.hpp"
#include "hpcwhisk/slurm/slurmctld.hpp"

namespace hpcwhisk::slurm {

using sim::SimTime;

/// Reaches the index and rebuilds its contents from scratch.
struct NodeIndexProbe {
  using Residents = std::vector<const JobRecord*>;

  static void refresh(Slurmctld& c) { c.refresh_index(); }
  static PlanningTimeline& begin_tier(Slurmctld& c, std::int32_t tier) {
    return c.begin_tier(tier);
  }
  static const std::vector<NodeId>& open(const Slurmctld& c) {
    return c.pass_cache_.open;
  }
  static std::vector<std::pair<NodeId, Residents>> preemptable(
      const Slurmctld& c) {
    std::vector<std::pair<NodeId, Residents>> out;
    for (const auto& p : c.pass_cache_.preemptable) {
      out.emplace_back(
          p.node,
          Residents(c.pass_cache_.residents.begin() +
                        static_cast<std::ptrdiff_t>(p.first),
                    c.pass_cache_.residents.begin() +
                        static_cast<std::ptrdiff_t>(p.last)));
    }
    return out;
  }

  // --- References: the per-pass builders the index replaced. ------------

  static bool reference_fits_better(const Slurmctld& c, NodeId a, NodeId b) {
    const Node& na = c.nodes_[a];
    const Node& nb = c.nodes_[b];
    const std::uint32_t fa = na.capacity.cpus - na.allocated.cpus;
    const std::uint32_t fb = nb.capacity.cpus - nb.allocated.cpus;
    if (fa != fb) return fa < fb;
    if (c.last_freed_[a] != c.last_freed_[b])
      return c.last_freed_[a] > c.last_freed_[b];
    return a < b;
  }

  static bool in_service(const Slurmctld& c, const Node& node) {
    return node.state != NodeState::kDown && !c.draining_[node.id] &&
           !c.node_claims_.contains(node.id);
  }

  static std::vector<NodeId> reference_open(const Slurmctld& c) {
    std::vector<NodeId> open;
    for (const Node& node : c.nodes_) {
      if (in_service(c, node) && !(node.capacity - node.allocated).is_zero())
        open.push_back(node.id);
    }
    std::sort(open.begin(), open.end(), [&c](NodeId a, NodeId b) {
      return reference_fits_better(c, a, b);
    });
    return open;
  }

  static std::vector<std::pair<NodeId, Residents>> reference_preemptable(
      const Slurmctld& c) {
    std::vector<std::pair<NodeId, Residents>> out;
    for (const Node& node : c.nodes_) {
      if (!in_service(c, node)) continue;
      Residents residents;
      for (const JobRecord* rec : node.running_jobs) {
        if (rec->preemptible && rec->state == JobState::kRunning)
          residents.push_back(rec);
      }
      if (residents.empty()) continue;
      std::sort(residents.begin(), residents.end(),
                [](const JobRecord* a, const JobRecord* b) {
                  if (a->preempt_tier != b->preempt_tier)
                    return a->preempt_tier < b->preempt_tier;
                  if (a->start_time != b->start_time)
                    return a->start_time > b->start_time;
                  return a->id > b->id;
                });
      out.emplace_back(node.id, std::move(residents));
    }
    return out;
  }

  static std::vector<SimTime> reference_availability(const Slurmctld& c,
                                                     std::int32_t tier) {
    const SimTime now = c.sim_.now();
    std::vector<SimTime> out(c.nodes_.size());
    for (const Node& node : c.nodes_) {
      SimTime free_at = now;
      if (node.state == NodeState::kDown) {
        free_at = SimTime::max();
      } else if (node.state == NodeState::kAllocated) {
        for (const JobRecord* rec : node.running_jobs) {
          if (rec->preemptible && rec->preempt_tier < tier) continue;
          SimTime expected = rec->expected_end();
          if (rec->state == JobState::kCompleting)
            expected = std::min(expected, rec->end_time);
          free_at = std::max(free_at, expected);
        }
      }
      const auto claim = c.node_claims_.find(node.id);
      if (claim != c.node_claims_.end()) {
        const JobRecord& claimant = c.jobs_.at(claim->second);
        free_at = std::max(free_at, now + claimant.granted_limit +
                                        c.partition_of(claimant).grace_time);
      }
      out[node.id] = free_at;
    }
    return out;
  }
};

namespace {

SimTime m(double minutes) { return SimTime::minutes(minutes); }

/// The full-scan selection: the k smallest (free_at, id) pairs of every
/// node ever free, by nth_element; books them like PlanningTimeline.
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

enum class Regime { kLegacy, kTres, kQos, kReservations };

struct Scenario {
  Regime regime;
  std::uint64_t seed;
};

std::string scenario_name(const Scenario& s) {
  static const char* const kNames[] = {"Legacy", "Tres", "Qos",
                                       "Reservations"};
  return std::string(kNames[static_cast<int>(s.regime)]) + "Seed" +
         std::to_string(s.seed);
}
std::string name_of(const testing::TestParamInfo<Scenario>& info) {
  return scenario_name(info.param);
}
void PrintTo(const Scenario& s, std::ostream* os) { *os << scenario_name(s); }

class NodeIndex : public testing::TestWithParam<Scenario> {
 protected:
  static constexpr std::uint32_t kNodes = 24;

  void SetUp() override {
    rng_.seed(GetParam().seed);
    const Regime regime = GetParam().regime;
    tres_ = regime != Regime::kLegacy && regime != Regime::kQos;
    qos_ = regime == Regime::kQos;

    Slurmctld::Config cfg;
    cfg.node_count = kNodes;
    cfg.launch_latency = SimTime::zero();
    cfg.min_pass_gap = pick(0, 1) == 0 ? SimTime::zero() : SimTime::seconds(20);
    cfg.backfill_window = m(90);
    cfg.reservation_depth = 4;
    if (tres_) {
      cfg.fidelity.tres_mode = true;
      cfg.fidelity.node_capacity = {8, 32000, 0};
    }
    std::vector<Partition> parts;
    parts.push_back({.name = "hpc", .priority_tier = 1});
    parts.push_back({.name = "pilot",
                     .priority_tier = 0,
                     .preempt_mode = PreemptMode::kCancel,
                     .grace_time = SimTime::seconds(90)});
    if (qos_) {
      // Two HPC tiers, the lower one preemptible, plus QOS levels that
      // reorder preemption across and within them.
      parts.push_back({.name = "high", .priority_tier = 2});
      parts[0].preempt_mode = PreemptMode::kCancel;
      parts[0].grace_time = SimTime::seconds(60);
      cfg.fidelity.qos = {{.name = "urgent", .preempt_tier = 3},
                          {.name = "normal", .preempt_tier = 1},
                          {.name = "scavenger", .preempt_tier = 0}};
      tiers_ = {2, 1};
    } else {
      tiers_ = {1};
    }
    ctld_ = std::make_unique<Slurmctld>(sim_, cfg, std::move(parts));
  }

  std::int64_t pick(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng_);
  }

  void submit_one() {
    JobSpec spec;
    const std::int64_t kind = pick(0, 9);
    if (kind < 4) {
      spec.partition = "pilot";
      spec.num_nodes = 1;
      spec.time_limit = m(static_cast<double>(pick(2, 12) * 5));
      spec.actual_runtime = SimTime::max();
      if (pick(0, 3) == 0) spec.time_min = m(5);
      if (pick(0, 2) == 0) {
        // Some pilots drain at once on SIGTERM, re-entering the
        // scheduler from inside a pass.
        Slurmctld* ctld = ctld_.get();
        spec.on_sigterm = [ctld](const JobRecord& r) {
          ctld->job_exited(r.id);
        };
      }
      if (tres_) spec.tres_per_node = {static_cast<std::uint32_t>(pick(1, 4)),
                                       4000, 0};
    } else {
      spec.partition = qos_ && pick(0, 1) == 0 ? "high" : "hpc";
      spec.num_nodes = static_cast<std::uint32_t>(pick(1, 6));
      spec.time_limit = m(static_cast<double>(pick(1, 24) * 5));
      const std::int64_t run = pick(0, 4);
      spec.actual_runtime =
          run == 0 ? SimTime::max()
                   : SimTime::micros(spec.time_limit.ticks() / 4 * run);
      if (tres_ && pick(0, 1) == 0)
        spec.tres_per_node = {static_cast<std::uint32_t>(pick(1, 8)), 8000,
                              0};
      if (qos_) {
        static const char* const kQos[] = {"", "urgent", "normal",
                                           "scavenger"};
        spec.qos = kQos[pick(0, 3)];
      }
    }
    jobs_.push_back(ctld_->submit(std::move(spec)));
  }

  JobId any_job() {
    return jobs_[static_cast<std::size_t>(
        pick(0, static_cast<std::int64_t>(jobs_.size()) - 1))];
  }
  NodeId any_node() { return static_cast<NodeId>(pick(0, kNodes - 1)); }

  void step() {
    const SimTime now = sim_.now();
    switch (pick(0, 12)) {
      case 0: case 1: case 2:
        for (std::int64_t i = pick(1, 4); i > 0; --i) submit_one();
        break;
      case 3: case 4: case 5:
        sim_.run_until(now +
                       SimTime::seconds(static_cast<double>(pick(1, 400))));
        break;
      case 6:
        if (!jobs_.empty()) ctld_->cancel(any_job());
        break;
      case 7:
        if (!jobs_.empty()) ctld_->job_exited(any_job());
        break;
      case 8: ctld_->set_node_down(any_node()); break;
      case 9:
        ctld_->fail_node(any_node(),
                         SimTime::seconds(static_cast<double>(pick(0, 120))));
        break;
      case 10: ctld_->set_node_up(any_node()); break;
      case 11: ctld_->drain_node(any_node()); break;
      case 12:
        if (GetParam().regime == Regime::kReservations) {
          // Rolling maintenance windows over a few nodes.
          Reservation r;
          r.name = "maint";
          r.start = now + m(static_cast<double>(pick(0, 30)));
          r.end = r.start + m(static_cast<double>(pick(5, 60)));
          for (std::int64_t i = pick(1, 4); i > 0; --i)
            r.nodes.push_back(any_node());
          ctld_->add_reservation(std::move(r));
        } else {
          ctld_->schedule_now();
        }
        break;
    }
  }

  /// Compares every maintained structure with its reference.
  void check(int at) {
    using Probe = NodeIndexProbe;
    // The snapshot reads maintained releases, and stale nodes afresh.
    for (const std::int32_t tier : tiers_) {
      ASSERT_EQ(ctld_->availability_snapshot(tier).free_at,
                Probe::reference_availability(*ctld_, tier))
          << "snapshot, tier " << tier << ", step " << at;
    }
    Probe::refresh(*ctld_);
    ASSERT_EQ(Probe::open(*ctld_), Probe::reference_open(*ctld_))
        << "open, step " << at;
    ASSERT_EQ(Probe::preemptable(*ctld_), Probe::reference_preemptable(*ctld_))
        << "preemptable, step " << at;

    // Each tier's view and its k-earliest picks against the full scan.
    std::vector<NodeId> have;
    std::vector<NodeId> want;
    const SimTime now = sim_.now();
    for (const std::int32_t tier : tiers_) {
      std::vector<SimTime> ref = Probe::reference_availability(*ctld_, tier);
      PlanningTimeline& t = Probe::begin_tier(*ctld_, tier);
      for (NodeId n = 0; n < kNodes; ++n) {
        ASSERT_EQ(t.free_at(n), ref[n])
            << "node " << n << ", tier " << tier << ", step " << at;
      }
      for (int q = 0; q < 4; ++q) {
        const auto k = static_cast<std::uint32_t>(pick(1, kNodes));
        const SimTime latest = now + m(static_cast<double>(pick(0, 180)));
        const SimTime length = m(static_cast<double>(pick(1, 12) * 10));
        const std::optional<SimTime> got = t.reserve(k, latest, length, have);
        ASSERT_EQ(got, reference_reserve(ref, k, latest, length, want))
            << "tier " << tier << ", step " << at << ", query " << q;
        std::sort(have.begin(), have.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(have, want)
            << "tier " << tier << ", step " << at << ", query " << q;
      }
      t.end();
    }
  }

  std::mt19937_64 rng_;
  sim::Simulation sim_;
  std::unique_ptr<Slurmctld> ctld_;
  std::vector<JobId> jobs_;
  std::vector<std::int32_t> tiers_;
  bool tres_{false};
  bool qos_{false};
};

TEST_P(NodeIndex, MatchesFromScratchBuildersAfterEveryTransition) {
  for (int at = 0; at < 400; ++at) {
    step();
    ASSERT_NO_FATAL_FAILURE(check(at));
  }
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (const Regime r : {Regime::kLegacy, Regime::kTres, Regime::kQos,
                         Regime::kReservations}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) out.push_back({r, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Regimes, NodeIndex, testing::ValuesIn(scenarios()),
                         name_of);

}  // namespace
}  // namespace hpcwhisk::slurm
