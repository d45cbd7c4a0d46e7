#include "hpcwhisk/check/invariants.hpp"

#include <algorithm>

#include "hpcwhisk/check/fidelity.hpp"
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

namespace hpcwhisk::check {
namespace {

// "c<N>", built by appending: GCC 12 reports a false -Wrestrict on
// `"c" + std::to_string(c)` (a prepend into the temporary).
std::string cluster_tag(std::size_t cluster) {
  std::string tag = "c";
  tag += std::to_string(cluster);
  return tag;
}

std::string job_tag(std::size_t cluster, const JobInfo& j) {
  std::ostringstream out;
  out << "c" << cluster << " job " << j.id << " (" << j.partition << ")";
  return out.str();
}

void check_activation_conservation(const ScenarioSpec&,
                                   const RunObservation& obs,
                                   std::vector<Violation>& out) {
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    for (const std::string& v : obs.clusters[c].audit.violations) {
      out.push_back({"activation-conservation",
                     cluster_tag(c) + ": " + v});
    }
  }
}

void check_terminal_balance(const ScenarioSpec&, const RunObservation& obs,
                            std::vector<Violation>& out) {
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    const ClusterObservation& co = obs.clusters[c];
    const auto& ct = co.controller;
    const auto tag = [&](const std::string& msg) {
      out.push_back({"terminal-balance", cluster_tag(c) + ": " + msg});
    };
    if (ct.submitted != ct.accepted + ct.rejected_503) {
      tag("submitted " + std::to_string(ct.submitted) + " != accepted " +
          std::to_string(ct.accepted) + " + rejected_503 " +
          std::to_string(ct.rejected_503));
    }
    if (ct.accepted != ct.completed + ct.failed + ct.timed_out) {
      tag("accepted " + std::to_string(ct.accepted) + " != completed " +
          std::to_string(ct.completed) + " + failed " +
          std::to_string(ct.failed) + " + timed_out " +
          std::to_string(ct.timed_out));
    }
    if (co.nonterminal_activations != 0) {
      tag(std::to_string(co.nonterminal_activations) +
          " activations still non-terminal after the settle window");
    }
  }
  if (!obs.federated && !obs.clusters.empty()) {
    const auto& ct = obs.clusters[0].controller;
    if (ct.submitted != obs.faas_issued) {
      out.push_back({"terminal-balance",
                     "issued " + std::to_string(obs.faas_issued) +
                         " calls but controller saw " +
                         std::to_string(ct.submitted)});
    }
  }
}

void check_pilot_accounting(const ScenarioSpec&, const RunObservation& obs,
                            std::vector<Violation>& out) {
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    const auto& m = obs.clusters[c].manager;
    // hard_killed is excluded: it annotates a subset of node_failed
    // (ends that arrived with no SIGTERM warning), not a disjoint class.
    const std::uint64_t accounted = m.preempted + m.timed_out + m.completed +
                                    m.node_failed + m.cancelled +
                                    obs.clusters[c].active_pilots;
    if (m.started != accounted) {
      out.push_back(
          {"pilot-accounting",
           cluster_tag(c) + ": started " + std::to_string(m.started) +
               " != preempted " + std::to_string(m.preempted) +
               " + timed_out " + std::to_string(m.timed_out) +
               " + completed " + std::to_string(m.completed) +
               " + node_failed " + std::to_string(m.node_failed) +
               " + cancelled " + std::to_string(m.cancelled) +
               " + active " + std::to_string(obs.clusters[c].active_pilots)});
    }
    if (m.hard_killed > m.node_failed) {
      out.push_back({"pilot-accounting",
                     cluster_tag(c) + ": hard_killed " +
                         std::to_string(m.hard_killed) +
                         " exceeds node_failed " +
                         std::to_string(m.node_failed)});
    }
  }
}

void check_node_timeline(const ScenarioSpec&, const RunObservation& obs,
                         std::vector<Violation>& out) {
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    const ClusterObservation& co = obs.clusters[c];
    // intervals() after finalize: sorted by (node, start).
    std::vector<char> seen(co.node_count, 0);
    slurm::NodeId current = 0;
    sim::SimTime cursor = sim::SimTime::zero();
    bool open = false;
    const auto close_node = [&](slurm::NodeId node) {
      if (open && cursor != obs.end_time) {
        out.push_back({"node-timeline",
                       cluster_tag(c) + " node " +
                           std::to_string(node) + " timeline ends at " +
                           std::to_string(cursor.ticks()) + " ticks, not " +
                           std::to_string(obs.end_time.ticks())});
      }
    };
    for (const analysis::NodeInterval& iv : co.node_intervals) {
      if (!open || iv.node != current) {
        if (open) close_node(current);
        current = iv.node;
        cursor = sim::SimTime::zero();
        open = true;
        if (iv.node < co.node_count) seen[iv.node] = 1;
      }
      if (iv.start != cursor) {
        out.push_back({"node-timeline",
                       cluster_tag(c) + " node " +
                           std::to_string(iv.node) + " has a gap/overlap at " +
                           std::to_string(iv.start.ticks()) + " ticks"});
      }
      if (iv.end < iv.start) {
        out.push_back({"node-timeline",
                       cluster_tag(c) + " node " +
                           std::to_string(iv.node) +
                           " has a negative-length interval"});
      }
      cursor = iv.end;
    }
    if (open) close_node(current);
    for (std::uint32_t n = 0; n < co.node_count; ++n) {
      if (!seen[n]) {
        out.push_back({"node-timeline", cluster_tag(c) + " node " +
                                            std::to_string(n) +
                                            " has no timeline at all"});
      }
    }
  }
}

void check_no_double_allocation(const ScenarioSpec& spec,
                                const RunObservation& obs,
                                std::vector<Violation>& out) {
  // TRES mode: jobs legitimately co-reside on partial nodes; the vector
  // form (tres-capacity below) takes over.
  if (spec.tres_mode) return;
  struct Hold {
    sim::SimTime start;
    sim::SimTime release;
    slurm::JobId id;
  };
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    const ClusterObservation& co = obs.clusters[c];
    std::map<slurm::NodeId, std::vector<Hold>> holds;
    for (const JobInfo& j : co.jobs) {
      if (j.start == sim::SimTime::max()) continue;
      const sim::SimTime release = j.ended ? j.end : obs.end_time;
      for (const slurm::NodeId n : j.nodes) {
        holds[n].push_back({j.start, release, j.id});
      }
    }
    for (auto& [node, hv] : holds) {
      std::sort(hv.begin(), hv.end(), [](const Hold& a, const Hold& b) {
        return a.start != b.start ? a.start < b.start : a.id < b.id;
      });
      for (std::size_t i = 1; i < hv.size(); ++i) {
        if (hv[i].start < hv[i - 1].release) {
          out.push_back({"no-double-allocation",
                         cluster_tag(c) + " node " +
                             std::to_string(node) + " held by jobs " +
                             std::to_string(hv[i - 1].id) + " and " +
                             std::to_string(hv[i].id) + " simultaneously"});
        }
      }
    }
  }
}

void check_grace_respected(const ScenarioSpec& spec, const RunObservation& obs,
                           std::vector<Violation>& out) {
  // default_partitions keeps the hpc partition at the canonical 3-minute
  // grace regardless of the pilot grace knob.
  const sim::SimTime hpc_grace = sim::SimTime::minutes(3);
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    for (const JobInfo& j : obs.clusters[c].jobs) {
      if (!j.got_sigterm) continue;
      // Preemption and time-limit SIGTERMs must grant *exactly* the
      // partition grace — a truncated grace is as much a bug as an
      // overlong one (fault-injected kNodeFailed kills are exempt: their
      // truncation is the injected fault itself).
      if (j.sigterm_reason == slurm::EndReason::kPreempted ||
          j.sigterm_reason == slurm::EndReason::kTimeLimit) {
        const sim::SimTime expected =
            j.partition == "pilot" ? spec.grace : hpc_grace;
        if (j.sigterm_grace != expected) {
          out.push_back(
              {"grace-respected",
               job_tag(c, j) + " got " +
                   std::to_string(j.sigterm_grace.ticks()) +
                   " ticks of grace on " +
                   slurm::to_string(j.sigterm_reason) + ", partition promises " +
                   std::to_string(expected.ticks())});
        }
        if (j.sigterm_deadline != j.sigterm_at + j.sigterm_grace) {
          out.push_back({"grace-respected",
                         job_tag(c, j) +
                             " SIGKILL deadline disagrees with the granted "
                             "grace window"});
        }
      }
      // Every SIGTERM'd job must be gone by the announced deadline
      // (early voluntary exit is fine; an overstay means SIGKILL never
      // fired). Jobs cut off by the end of the run are skipped.
      if (j.ended && j.end > j.sigterm_deadline) {
        out.push_back({"grace-respected",
                       job_tag(c, j) + " outlived its SIGKILL deadline by " +
                           std::to_string((j.end - j.sigterm_deadline).ticks()) +
                           " ticks"});
      }
    }
  }
}

void check_backfill_priority(const ScenarioSpec& spec,
                             const RunObservation& obs,
                             std::vector<Violation>& out) {
  // EASY backfill legality on the hpc partition: when job K received an
  // allocation, no older, strictly higher-priority fixed job P that was
  // still undecided could have used that same allocation (P needs no
  // more nodes and no more time than K got). The scheduler scans in
  // priority order and K's nodes passed the reservation filter for
  // K.granted_limit >= P.time_limit, so P would have started first —
  // starting K instead delays the reservation holder. Pilots (tier 0,
  // separate placement policy) and variable jobs (resized per pass) are
  // out of scope.
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    const ClusterObservation& co = obs.clusters[c];
    std::vector<const JobInfo*> hpc;
    for (const JobInfo& j : co.jobs) {
      if (j.partition == "hpc" && j.fixed) hpc.push_back(&j);
    }
    for (const JobInfo* k : hpc) {
      if (k->decision == sim::SimTime::max() || k->nodes.empty()) continue;
      for (const JobInfo* p : hpc) {
        if (p == k) continue;
        const bool higher = p->priority > k->priority ||
                            (p->priority == k->priority && p->id < k->id);
        if (!higher) continue;
        if (p->submit >= k->decision) continue;     // not yet queued
        if (p->decision <= k->decision) continue;   // already placed
        if (p->ended && p->end <= k->decision) continue;  // cancelled
        if (p->num_nodes > k->nodes.size()) continue;
        if (p->time_limit > k->granted_limit) continue;
        // TRES mode: P provably fit K's allocation only if its per-node
        // request fits inside what K actually took (the nodes may have
        // had no free TRES beyond that).
        if (spec.tres_mode && !p->tres.fits_within(k->tres)) continue;
        out.push_back(
            {"backfill-priority",
             job_tag(c, *k) + " backfilled at " +
                 std::to_string(k->decision.ticks()) + " ticks over " +
                 job_tag(c, *p) + " (prio " + std::to_string(p->priority) +
                 " > " + std::to_string(k->priority) +
                 ") which fit the same allocation"});
      }
    }
  }
}

void check_federation_conservation(const ScenarioSpec&,
                                   const RunObservation& obs,
                                   std::vector<Violation>& out) {
  if (!obs.federated) return;
  const auto& g = obs.gateway;
  if (g.invocations != g.cluster_calls + g.cloud_calls) {
    out.push_back({"federation-conservation",
                   "gateway invocations " + std::to_string(g.invocations) +
                       " != cluster " + std::to_string(g.cluster_calls) +
                       " + cloud " + std::to_string(g.cloud_calls)});
  }
  if (g.invocations != obs.faas_issued) {
    out.push_back({"federation-conservation",
                   "issued " + std::to_string(obs.faas_issued) +
                       " calls but the gateway routed " +
                       std::to_string(g.invocations)});
  }
  const std::uint64_t per_cluster_sum = std::accumulate(
      obs.per_cluster_calls.begin(), obs.per_cluster_calls.end(),
      std::uint64_t{0});
  if (per_cluster_sum != g.cluster_calls) {
    out.push_back({"federation-conservation",
                   "per-cluster calls sum to " +
                       std::to_string(per_cluster_sum) + ", gateway counted " +
                       std::to_string(g.cluster_calls)});
  }
  std::uint64_t accepted = 0;
  for (const ClusterObservation& co : obs.clusters) {
    accepted += co.controller.accepted;
  }
  if (accepted != g.cluster_calls) {
    out.push_back({"federation-conservation",
                   "clusters accepted " + std::to_string(accepted) +
                       " activations, gateway placed " +
                       std::to_string(g.cluster_calls)});
  }
}

}  // namespace

void check_tres_capacity(const ScenarioSpec& spec, const RunObservation& obs,
                         std::vector<Violation>& out) {
  if (!spec.tres_mode) return;
  struct Ev {
    sim::SimTime at;
    bool is_start;
    slurm::JobId id;
    slurm::TresVector tres;
  };
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    const ClusterObservation& co = obs.clusters[c];
    const slurm::TresVector cap = co.node_capacity.is_zero()
                                      ? promised_capacity(spec)
                                      : co.node_capacity;
    std::map<slurm::NodeId, std::vector<Ev>> events;
    for (const JobInfo& j : co.jobs) {
      if (j.start == sim::SimTime::max()) continue;
      // Zero request = whole node (submit substitutes the capacity, so
      // this only shows up for synthetic observations).
      const slurm::TresVector tres = j.tres.is_zero() ? cap : j.tres;
      const sim::SimTime release = j.ended ? j.end : obs.end_time;
      for (const slurm::NodeId n : j.nodes) {
        events[n].push_back({j.start, true, j.id, tres});
        events[n].push_back({release, false, j.id, tres});
      }
    }
    for (auto& [node, evs] : events) {
      // Releases before starts at equal times: a preemption victim's end
      // and its claimant's launch share a tick legitimately.
      std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
        if (a.at != b.at) return a.at < b.at;
        if (a.is_start != b.is_start) return !a.is_start;
        return a.id < b.id;
      });
      slurm::TresVector used{};
      for (const Ev& e : evs) {
        if (!e.is_start) {
          used -= e.tres;
          continue;
        }
        used += e.tres;
        if (!used.fits_within(cap)) {
          out.push_back(
              {"tres-capacity",
               cluster_tag(c) + " node " + std::to_string(node) +
                   " allocated " + used.to_string() + " > promised " +
                   cap.to_string() + " at " + std::to_string(e.at.ticks()) +
                   " ticks (job " + std::to_string(e.id) + " launching)"});
          break;  // one violation per node tells the story
        }
      }
    }
  }
}

void check_reservation_exclusion(const ScenarioSpec& spec,
                                 const RunObservation& obs,
                                 std::vector<Violation>& out) {
  if (!spec.tres_mode || !spec.reservation) return;
  const slurm::Reservation r = spec_reservation(spec);
  const sim::SimTime hpc_grace = sim::SimTime::minutes(3);
  for (std::size_t c = 0; c < obs.clusters.size(); ++c) {
    for (const JobInfo& j : obs.clusters[c].jobs) {
      if (j.start == sim::SimTime::max()) continue;
      const bool on_reserved =
          std::any_of(j.nodes.begin(), j.nodes.end(), [&](slurm::NodeId n) {
            return std::find(r.nodes.begin(), r.nodes.end(), n) !=
                   r.nodes.end();
          });
      if (!on_reserved) continue;
      if (j.start >= r.start && j.start < r.end) {
        out.push_back({"reservation-exclusion",
                       job_tag(c, j) + " started at " +
                           std::to_string(j.start.ticks()) +
                           " ticks inside the reservation window [" +
                           std::to_string(r.start.ticks()) + ", " +
                           std::to_string(r.end.ticks()) + ")"});
        continue;
      }
      if (j.start < r.start) {
        // Running at window-open: must be preempted away within the
        // partition grace.
        const sim::SimTime grace =
            j.partition == "pilot" ? spec.grace : hpc_grace;
        const sim::SimTime deadline = r.start + grace;
        const sim::SimTime gone = j.ended ? j.end : obs.end_time;
        if (gone > deadline) {
          out.push_back(
              {"reservation-exclusion",
               job_tag(c, j) + " survived " +
                   std::to_string((gone - deadline).ticks()) +
                   " ticks past the reservation-open grace deadline"});
        }
      }
    }
  }
}

InvariantSuite& InvariantSuite::add(std::string name, Fn fn) {
  names_.push_back(std::move(name));
  fns_.push_back(std::move(fn));
  return *this;
}

std::vector<Violation> InvariantSuite::run(const ScenarioSpec& spec,
                                           const RunObservation& obs) const {
  std::vector<Violation> out;
  for (const Fn& fn : fns_) fn(spec, obs, out);
  return out;
}

InvariantSuite InvariantSuite::standard() {
  InvariantSuite suite;
  suite.add("activation-conservation", check_activation_conservation)
      .add("terminal-balance", check_terminal_balance)
      .add("pilot-accounting", check_pilot_accounting)
      .add("node-timeline", check_node_timeline)
      .add("no-double-allocation", check_no_double_allocation)
      .add("grace-respected", check_grace_respected)
      .add("backfill-priority", check_backfill_priority)
      .add("federation-conservation", check_federation_conservation)
      .add("tres-capacity", check_tres_capacity)
      .add("reservation-exclusion", check_reservation_exclusion);
  return suite;
}

}  // namespace hpcwhisk::check
