#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "hpcwhisk/check/fidelity.hpp"
#include "hpcwhisk/check/invariants.hpp"

namespace perfbench {

namespace check = hpcwhisk::check;
namespace slurm = hpcwhisk::slurm;
namespace whisk = hpcwhisk::whisk;

namespace {

class Fnv1a {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) mix(b);
  }
  void add(const std::string& s) {
    add(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t h_{0xCBF29CE484222325ULL};
};

void add_activation(Fnv1a& h, const whisk::ActivationRecord& rec) {
  h.add(rec.id);
  h.add(rec.function);
  h.add(rec.state);
  h.add(rec.submit_time.ticks());
  h.add(rec.first_start_time.ticks());
  h.add(rec.end_time.ticks());
  h.add(rec.executed_by);
  h.add(rec.routed_to);
  h.add(rec.requeues);
  h.add(rec.interruptions);
  h.add(rec.cold_start);
}

/// Every issued call reaches exactly one terminal state or a 503; the
/// controller's counters tell the same story as its records.
void check_conservation(std::size_t cluster, const ClusterProbe& probe,
                        const std::vector<whisk::ActivationRecord>& records,
                        check::ClusterObservation& co,
                        std::vector<std::string>& out) {
  auto& audit = co.audit;
  const std::string tag = "c" + std::to_string(cluster) + ": ";
  const auto seen = [&probe](whisk::ActivationId id) -> unsigned {
    return id < probe.terminal_seen.size() ? probe.terminal_seen[id] : 0;
  };
  for (const whisk::ActivationRecord& rec : records) {
    switch (rec.state) {
      case whisk::ActivationState::kRejected503:
        ++audit.rejected_503;
        if (seen(rec.id) != 0) {
          audit.violations.push_back(tag + "activation " +
                                     std::to_string(rec.id) +
                                     " was refused with 503 yet terminated");
        }
        continue;
      case whisk::ActivationState::kCompleted: ++audit.completed; break;
      case whisk::ActivationState::kFailed: ++audit.failed; break;
      case whisk::ActivationState::kTimedOut: ++audit.timed_out; break;
      case whisk::ActivationState::kQueued:
      case whisk::ActivationState::kRunning:
        ++audit.in_flight;
        ++co.nonterminal_activations;
        audit.violations.push_back(tag + "activation " +
                                   std::to_string(rec.id) +
                                   " never reached a terminal state");
        break;
    }
    ++audit.accepted;
    if (whisk::is_terminal(rec.state) && seen(rec.id) != 1) {
      if (seen(rec.id) > 1) ++audit.double_terminal;
      audit.violations.push_back(
          tag + "activation " + std::to_string(rec.id) + " saw " +
          std::to_string(seen(rec.id)) + " terminal transitions");
    }
  }
  const auto& c = co.controller;
  audit.submitted = c.submitted;
  if (c.submitted != records.size() ||
      c.submitted != audit.accepted + audit.rejected_503 ||
      c.completed != audit.completed || c.failed != audit.failed ||
      c.timed_out != audit.timed_out ||
      c.rejected_503 != audit.rejected_503) {
    audit.violations.push_back(tag +
                               "controller counters disagree with its records");
  }
  for (const std::string& v : audit.violations) out.push_back(v);
}

}  // namespace

Plant plant_from_string(const std::string& name) {
  if (name == "none") return Plant::kNone;
  if (name == "corrupt-activation") return Plant::kCorruptActivation;
  if (name == "double-allocation") return Plant::kDoubleAllocation;
  throw std::invalid_argument("unknown plant '" + name + "'");
}

std::uint64_t decision_digest(World& world) {
  Fnv1a h;
  for (const ClusterProbe& probe : world.clusters()) {
    probe.system->slurm().for_each_job([&h](const slurm::JobRecord& rec) {
      h.add(rec.id);
      h.add(rec.spec.partition);
      h.add(rec.state);
      h.add(rec.effective_priority);
      h.add(rec.submit_time.ticks());
      h.add(rec.start_time.ticks());
      h.add(rec.end_time.ticks());
      h.add(rec.granted_limit.ticks());
      h.add(rec.nodes.size());
      for (const slurm::NodeId n : rec.nodes) h.add(n);
    });
    for (const whisk::ActivationRecord& rec :
         probe.system->controller().activations()) {
      add_activation(h, rec);
    }
  }
  if (auto* gw = world.gateway()) {
    for (const auto& rec : gw->cloud_service().invocations()) {
      h.add(rec.id);
      h.add(rec.function);
      h.add(rec.submit_time.ticks());
      h.add(rec.end_time.ticks());
      h.add(rec.cold_start);
    }
  }
  return h.value();
}

CheckResult run_checks(World& world, Plant plant) {
  CheckResult result;
  std::vector<std::string>& out = result.violations;
  const WorkloadSpec& spec = world.spec();

  check::RunObservation obs;
  obs.end_time = world.horizon();
  obs.faas_issued = world.issued();
  for (std::size_t c = 0; c < world.clusters().size(); ++c) {
    const ClusterProbe& probe = world.clusters()[c];
    auto& system = *probe.system;
    check::ClusterObservation co;
    co.node_count = system.slurm().node_count();
    if (spec.tres) co.node_capacity = system.slurm().node_capacity(0);
    co.controller = system.controller().counters();
    co.slurm = system.slurm().counters();
    co.manager = system.manager().counters();
    co.active_pilots = system.manager().active_pilots();
    co.node_intervals = probe.node_log->intervals();
    co.jobs.reserve(probe.jobs.size());
    for (const auto& [id, job] : probe.jobs) co.jobs.push_back(job);

    const auto& records = system.controller().activations();
    if (plant == Plant::kCorruptActivation && c == 0) {
      std::vector<whisk::ActivationRecord> corrupted = records;
      const auto it = std::find_if(
          corrupted.begin(), corrupted.end(), [](const auto& r) {
            return r.state == whisk::ActivationState::kCompleted;
          });
      if (it != corrupted.end()) it->state = whisk::ActivationState::kQueued;
      check_conservation(c, probe, corrupted, co, out);
    } else {
      check_conservation(c, probe, records, co, out);
    }
    if (plant == Plant::kDoubleAllocation && c == 0) {
      // A second job claims the first started HPC job's nodes for the
      // same interval.
      const auto it = std::find_if(co.jobs.begin(), co.jobs.end(),
                                   [](const check::JobInfo& j) {
                                     return j.tier > 0 && !j.nodes.empty();
                                   });
      if (it != co.jobs.end()) {
        check::JobInfo twin = *it;
        twin.id = co.jobs.back().id + 1;
        co.jobs.push_back(twin);
      }
    }
    obs.clusters.push_back(std::move(co));
  }
  if (auto* gw = world.gateway()) {
    obs.federated = true;
    obs.gateway = gw->counters();
    obs.per_cluster_calls = gw->per_cluster_calls();
  }

  // The SimCheck suite. Activation conservation reads the audit filled
  // above (already reported), so only its other invariants add lines.
  check::ScenarioSpec scenario;
  scenario.nodes = spec.nodes;
  scenario.clusters = spec.clusters;
  scenario.tres_mode = spec.tres;
  if (spec.tres) {
    scenario.node_cpus = obs.clusters[0].node_capacity.cpus;
    scenario.node_mem_mb = obs.clusters[0].node_capacity.mem_mb;
  }
  for (const check::Violation& v :
       check::InvariantSuite::standard().run(scenario, obs)) {
    if (v.invariant == "activation-conservation") continue;
    (v.invariant == "pilot-accounting" ? result.pilot_accounting : out)
        .push_back(v.invariant + ": " + v.message);
  }

  // The suite's reservation invariant covers one window per scenario;
  // the rolling windows are checked one at a time.
  std::vector<check::Violation> resv;
  for (const slurm::Reservation& r : world.maintenance_windows()) {
    check::ScenarioSpec window = scenario;
    window.reservation = true;
    window.horizon = r.start;
    window.res_start_frac = 1.0;
    window.res_duration_min =
        static_cast<std::uint32_t>((r.end - r.start).to_minutes());
    window.res_nodes = static_cast<std::uint32_t>(r.nodes.size());
    if (check::spec_reservation(window).end != r.end) {
      out.push_back("reservation-exclusion: window " + r.name +
                    " cannot be expressed as a scenario reservation");
      continue;
    }
    check::check_reservation_exclusion(window, obs, resv);
  }
  for (const check::Violation& v : resv) {
    out.push_back(v.invariant + ": " + v.message);
  }
  return result;
}

}  // namespace perfbench
