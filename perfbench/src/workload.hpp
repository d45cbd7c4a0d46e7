#pragma once
// The benchmark's workloads and the world that runs one instance of
// one: the simulator wired as the workload asks, the seeded open-loop
// arrival schedule, and the probes the correctness checks read
// afterwards.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hpcwhisk/analysis/node_state_log.hpp"
#include "hpcwhisk/check/observation.hpp"
#include "hpcwhisk/core/system.hpp"
#include "hpcwhisk/fed/federated_gateway.hpp"
#include "hpcwhisk/obs/observability.hpp"
#include "hpcwhisk/sim/simulation.hpp"
#include "hpcwhisk/trace/hpc_workload.hpp"

#include "spans.hpp"

namespace perfbench {

namespace sim = hpcwhisk::sim;

/// `full` is the measured size; `tiny` shrinks clusters and windows so a
/// smoke test of every workload finishes in seconds.
enum class Scale { kFull, kTiny };

struct WorkloadSpec {
  std::string name;
  /// Independent instances per run, each with its own seed derived from
  /// the run's seed. Host time and outcomes are pooled over them, which
  /// evens out how busy one seed's simulated day happens to be.
  std::uint32_t instances{1};
  std::uint32_t clusters{1};
  std::uint32_t nodes{2239};  ///< per cluster
  sim::SimTime burn_in;
  sim::SimTime window;
  /// Simulated time after the window with no new arrivals, so every
  /// accepted call reaches a terminal state (function timeout is 5 min).
  sim::SimTime settle;
  /// Open-loop Poisson FaaS load during the window; 0 = none.
  double qps{0.0};
  std::uint32_t functions{0};
  /// Share of arrivals on the first `hot_functions` names (0 = uniform).
  double hot_share{0.0};
  std::uint32_t hot_functions{0};
  hpcwhisk::whisk::RouteMode route{hpcwhisk::whisk::RouteMode::kHashProbing};
  bool lease{false};
  bool hybrid_keep_alive{false};
  /// Slurm fidelity: per-TRES packing, rolling reservations, QOS tiers.
  bool tres{false};
  bool reservations{false};
  bool qos{false};
};

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name, Scale scale);

/// Seed of instance `k` of a run with seed `seed`.
std::uint64_t instance_seed(std::uint64_t seed, std::uint32_t k);

/// Simulated outcomes of a run, pooled over its instances. Identical on
/// every run of one seed.
struct Outcomes {
  double idle_coverage{0};
  double harvest_efficiency{0};
  double hpc_wait_p50_s{0};
  double hpc_wait_p95_s{0};
  std::uint64_t hpc_jobs{0};  ///< sample count of the wait percentiles
  double faas_p50_s{0};
  double faas_p99_s{0};
  std::uint64_t faas_completed{0};  ///< sample count of the latencies
  std::uint64_t faas_issued{0};
  std::uint64_t faas_failed{0};  ///< 503, failed, timed out or unfinished
  double cold_start_share{0};
  double cloud_offload_share{0};
};

/// Raw material of Outcomes, accumulated instance by instance.
struct Tally {
  std::uint64_t pilot_samples{0};      ///< pilot nodes, summed over 10-s samples
  std::uint64_t available_samples{0};  ///< idle + pilot nodes, likewise
  double harvested_s{0};
  double occupied_s{0};
  std::vector<double> hpc_waits_s;
  std::vector<double> latencies_s;
  std::uint64_t cold{0};
  std::uint64_t issued{0};
  std::uint64_t gateway_calls{0};
  std::uint64_t cloud_calls{0};

  [[nodiscard]] Outcomes outcomes() const;
};

/// Per-cluster probes attached before the run starts.
struct ClusterProbe {
  hpcwhisk::core::HpcWhiskSystem* system{nullptr};
  std::unique_ptr<hpcwhisk::analysis::NodeStateLog> node_log;
  std::map<hpcwhisk::slurm::JobId, hpcwhisk::check::JobInfo> jobs;
  /// Terminal transitions seen per activation id.
  std::vector<std::uint8_t> terminal_seen;
};

class World {
 public:
  /// Builds and wires everything; this is what `setup_s` times. With
  /// `observe` the program's obs plane is attached (traced run only).
  World(const WorkloadSpec& spec, std::uint64_t seed, bool observe);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  struct HostTimes {
    double burn_in_s{0};  ///< host seconds up to the measured window
    double window_s{0};   ///< host seconds over the window and settle
  };
  /// Simulates, in 60-s simulated slices, up to the start of the
  /// measured window; returns the host seconds it took. With `spans`,
  /// every slice and every submit/invoke call is recorded.
  double run_burn_in(SpanRecorder* spans);
  /// Simulates the window and the settle after `run_burn_in`, likewise.
  double run_window(SpanRecorder* spans);
  /// Both, one after the other.
  HostTimes run(SpanRecorder* spans);

  /// Folds this finished instance's outcomes into `tally`.
  void add_to(Tally& tally) const;

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const std::vector<ClusterProbe>& clusters() const {
    return clusters_;
  }
  /// Null unless the workload is federated.
  [[nodiscard]] hpcwhisk::fed::FederatedGateway* gateway() {
    return gateway_.get();
  }
  /// Null unless observing.
  [[nodiscard]] hpcwhisk::obs::Observability* obs() { return obs_.get(); }
  /// The rolling maintenance reservations (empty unless the workload
  /// has them), identical in every cluster.
  [[nodiscard]] std::vector<hpcwhisk::slurm::Reservation> maintenance_windows()
      const;
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  /// Calls the arrival schedule will issue.
  [[nodiscard]] std::size_t scheduled_calls() const { return arrivals_.size(); }
  [[nodiscard]] sim::SimTime measure_start() const { return spec_.burn_in; }
  [[nodiscard]] sim::SimTime measure_end() const {
    return spec_.burn_in + spec_.window;
  }
  [[nodiscard]] sim::SimTime horizon() const {
    return measure_end() + spec_.settle;
  }

 private:
  struct Arrival {
    sim::SimTime at;
    std::uint32_t function{0};
  };

  void attach_probe(ClusterProbe& probe);
  double run_slices(sim::SimTime until, SpanRecorder* spans);
  void arm_arrival(std::size_t i);
  void fire_arrival(std::size_t i);

  WorkloadSpec spec_;
  // Declared before the components so it is destroyed after them: they
  // record into it from their destructors.
  std::unique_ptr<hpcwhisk::obs::Observability> obs_;
  sim::Simulation sim_;
  std::unique_ptr<hpcwhisk::core::HpcWhiskSystem> system_;
  std::unique_ptr<hpcwhisk::trace::HpcWorkloadGenerator> hpc_load_;
  std::unique_ptr<hpcwhisk::fed::FederatedGateway> gateway_;
  std::vector<ClusterProbe> clusters_;
  std::vector<std::string> function_names_;
  std::vector<Arrival> arrivals_;
  std::uint64_t issued_{0};
  SpanRecorder* spans_{nullptr};
};

}  // namespace perfbench
