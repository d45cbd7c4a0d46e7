#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpcwhisk/analysis/stats.hpp"
#include "hpcwhisk/whisk/function.hpp"

namespace perfbench {

namespace core = hpcwhisk::core;
namespace slurm = hpcwhisk::slurm;
namespace whisk = hpcwhisk::whisk;
namespace fed = hpcwhisk::fed;
namespace trace = hpcwhisk::trace;

namespace {

/// splitmix64: derives independent component seeds from the workload
/// seed and drives the arrival schedule.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix{seed * 0x100000001B3ULL + stream}.next();
}

constexpr slurm::TresVector kNodeCapacity{8, 32000, 0};
constexpr slurm::TresVector kPilotTres{2, 8000, 0};
constexpr sim::SimTime kReservationPeriod = sim::SimTime::minutes(40);
constexpr sim::SimTime kReservationLength = sim::SimTime::minutes(15);

/// Rolling maintenance windows over the first nodes/16 nodes.
std::vector<slurm::Reservation> rolling_reservations(std::uint32_t nodes,
                                                     sim::SimTime until) {
  std::vector<slurm::Reservation> out;
  const std::uint32_t width = std::max<std::uint32_t>(1, nodes / 16);
  for (sim::SimTime at = kReservationPeriod; at < until;
       at += kReservationPeriod) {
    slurm::Reservation r;
    r.name = "maint-" + std::to_string(at.ticks());
    r.start = at;
    r.end = at + kReservationLength;
    for (std::uint32_t n = 0; n < width; ++n) r.nodes.push_back(n);
    out.push_back(std::move(r));
  }
  return out;
}

core::HpcWhiskSystem::Config system_config(const WorkloadSpec& spec,
                                           std::uint64_t seed,
                                           hpcwhisk::obs::Observability* obs,
                                           sim::SimTime until) {
  core::HpcWhiskSystem::Config cfg;
  cfg.obs = obs;
  cfg.seed = seed;
  cfg.slurm.node_count = spec.nodes;
  cfg.partitions = core::default_partitions();
  cfg.manager.model = core::SupplyModel::kFib;
  cfg.controller.route_mode = spec.route;
  cfg.controller.lease.enabled = spec.lease;
  if (spec.hybrid_keep_alive) {
    auto& ka = cfg.manager.invoker.pool.keep_alive;
    ka.policy = hpcwhisk::runtime::KeepAlivePolicy::kHybrid;
    ka.floor = sim::SimTime::seconds(60);
    ka.reap_interval = sim::SimTime::seconds(30);
  }
  if (spec.tres) {
    cfg.slurm.fidelity.tres_mode = true;
    cfg.slurm.fidelity.node_capacity = kNodeCapacity;
    cfg.manager.pilot_tres = kPilotTres;
    if (spec.qos) {
      // pilot-low dies before plain tier-0 pilots; pilot-high (the
      // longest fib length) sits at the HPC tier and is never evicted.
      cfg.slurm.fidelity.qos.push_back({"pilot-low", -1, 0, 1.0});
      cfg.slurm.fidelity.qos.push_back({"pilot-high", 1, 0, 1.0});
      cfg.manager.pilot_qos = "pilot-low";
      cfg.manager.pilot_qos_long = "pilot-high";
    }
    if (spec.reservations) {
      cfg.slurm.fidelity.reservations = rolling_reservations(spec.nodes, until);
    }
  }
  return cfg;
}

trace::HpcWorkloadGenerator::Config hpc_config(const WorkloadSpec& spec) {
  trace::HpcWorkloadGenerator::Config cfg;
  if (spec.tres) {
    // Whole/half/quarter-node jobs leave partial nodes for the
    // fractional pilots to co-reside on.
    const slurm::TresVector full = kNodeCapacity;
    cfg.tres_buckets = {{full, 0.5},
                        {{full.cpus / 2, full.mem_mb / 2, 0}, 0.3},
                        {{full.cpus / 4, full.mem_mb / 4, 0}, 0.2}};
  }
  return cfg;
}

void record_job_event(std::map<slurm::JobId, hpcwhisk::check::JobInfo>& jobs,
                      const slurm::JobEvent& ev) {
  hpcwhisk::check::JobInfo& info = jobs[ev.id];
  const slurm::JobRecord& rec = *ev.job;
  switch (ev.kind) {
    case slurm::JobEventKind::kSubmitted:
      info.id = ev.id;
      info.partition = rec.spec.partition;
      info.tier = rec.priority_tier;
      info.fixed = rec.spec.time_min == sim::SimTime::zero();
      info.priority = rec.spec.priority;
      info.num_nodes = rec.spec.num_nodes;
      info.tres = rec.spec.tres_per_node;
      info.time_limit = rec.spec.time_limit;
      info.time_min = rec.spec.time_min;
      info.submit = ev.when;
      break;
    case slurm::JobEventKind::kClaimed:
      info.decision = std::min(info.decision, ev.when);
      break;
    case slurm::JobEventKind::kLaunched:
      info.decision = std::min(info.decision, ev.when);
      info.start = ev.when;
      info.granted_limit = rec.granted_limit;
      info.nodes = rec.nodes;
      break;
    case slurm::JobEventKind::kSigterm:
      info.got_sigterm = true;
      info.sigterm_at = ev.when;
      info.sigterm_deadline = ev.deadline;
      info.sigterm_grace = ev.grace;
      info.sigterm_reason = ev.reason;
      break;
    case slurm::JobEventKind::kEnded:
      info.ended = true;
      info.end = ev.when;
      info.end_reason = ev.reason;
      break;
  }
}

double quantile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : hpcwhisk::analysis::percentile(v, q);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

WorkloadSpec workload_spec(const std::string& name, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  WorkloadSpec s;
  s.name = name;
  s.settle = sim::SimTime::minutes(6);
  if (name == "fib_day") {
    // Paper Table II: the full cluster, fib supply, legacy Slurm, no
    // FaaS calls.
    s.instances = 2;
    s.nodes = tiny ? 64 : 2239;
    s.burn_in = sim::SimTime::hours(tiny ? 1 : 4);
    s.window = tiny ? sim::SimTime::minutes(40) : sim::SimTime::hours(24);
    s.settle = sim::SimTime::zero();
  } else if (name == "serve_hot") {
    // Skewed open loop through data-driven routing and leases.
    s.instances = 2;
    s.nodes = tiny ? 64 : 2239;
    s.burn_in = sim::SimTime::hours(tiny ? 0.5 : 2);
    s.window = tiny ? sim::SimTime::minutes(10) : sim::SimTime::hours(1);
    s.qps = tiny ? 20.0 : 300.0;
    s.functions = 40;
    s.hot_share = 0.8;
    s.hot_functions = 8;
    s.route = whisk::RouteMode::kLeastExpectedWork;
    s.lease = true;
    s.hybrid_keep_alive = true;
  } else if (name == "tres_mix") {
    // Per-TRES packing + reservations + QOS tiers; a 400-function
    // working set through the queue path.
    s.instances = 3;
    s.nodes = tiny ? 32 : 256;
    s.burn_in = sim::SimTime::hours(tiny ? 0.5 : 1);
    s.window = tiny ? sim::SimTime::minutes(20) : sim::SimTime::hours(2);
    s.qps = tiny ? 10.0 : 50.0;
    s.functions = 400;
    s.tres = true;
    s.reservations = true;
    s.qos = true;
  } else if (name == "fed4") {
    // The paper's cluster split into four sites behind one gateway.
    s.instances = 2;
    s.clusters = 4;
    s.nodes = tiny ? 16 : 560;
    s.burn_in = sim::SimTime::hours(tiny ? 0.5 : 2);
    s.window = tiny ? sim::SimTime::minutes(10) : sim::SimTime::hours(3);
    // 150 QPS keeps each site's ~0.4M activation records clear of a
    // record-vector capacity doubling at 2^19, which at 200 QPS some
    // seeds crossed and others did not (peak RSS +-15 %).
    s.qps = tiny ? 10.0 : 150.0;
    s.functions = 40;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

std::uint64_t instance_seed(std::uint64_t seed, std::uint32_t k) {
  return derive(seed, 1000 + k);
}

Outcomes Tally::outcomes() const {
  Outcomes o;
  o.idle_coverage = ratio(static_cast<double>(pilot_samples),
                          static_cast<double>(available_samples));
  o.harvest_efficiency = ratio(harvested_s, occupied_s);
  o.hpc_jobs = hpc_waits_s.size();
  o.hpc_wait_p50_s = quantile(hpc_waits_s, 0.50);
  o.hpc_wait_p95_s = quantile(hpc_waits_s, 0.95);
  o.faas_issued = issued;
  o.faas_completed = latencies_s.size();
  o.faas_failed = issued - std::min<std::uint64_t>(issued, latencies_s.size());
  o.faas_p50_s = quantile(latencies_s, 0.50);
  o.faas_p99_s = quantile(latencies_s, 0.99);
  o.cold_start_share = ratio(static_cast<double>(cold),
                             static_cast<double>(latencies_s.size()));
  o.cloud_offload_share = ratio(static_cast<double>(cloud_calls),
                                static_cast<double>(gateway_calls));
  return o;
}

World::World(const WorkloadSpec& spec, std::uint64_t seed, bool observe)
    : spec_{spec} {
  if (observe) {
    // Counters only: the span ring and the decision log stay empty.
    hpcwhisk::obs::Observability::Config ocfg;
    ocfg.trace_capacity = 0;
    ocfg.decision_capacity = 0;
    obs_ = std::make_unique<hpcwhisk::obs::Observability>(ocfg);
  }

  for (std::uint32_t i = 0; i < spec_.functions; ++i) {
    function_names_.push_back("fn-" + std::to_string(i));
  }
  const auto function_spec = [](const std::string& name) {
    return whisk::fixed_duration_function(name, sim::SimTime::millis(10));
  };

  if (spec_.clusters == 1) {
    system_ = std::make_unique<core::HpcWhiskSystem>(
        sim_, system_config(spec_, derive(seed, 1), obs_.get(), horizon()));
    for (const std::string& name : function_names_) {
      system_->functions().put(function_spec(name));
    }
    hpc_load_ = std::make_unique<trace::HpcWorkloadGenerator>(
        sim_, system_->slurm(), hpc_config(spec_),
        sim::Rng{derive(seed, 2)});
    clusters_.resize(1);
    clusters_[0].system = system_.get();
  } else {
    fed::FederatedGateway::Config gcfg;
    gcfg.policy = fed::FedPolicy::kPowerOfTwo;
    gcfg.health_refresh = sim::SimTime::seconds(1);
    gcfg.seed = derive(seed, 3);
    gcfg.obs = obs_.get();
    for (std::uint32_t c = 0; c < spec_.clusters; ++c) {
      fed::FederatedGateway::ClusterSpec cs;
      cs.system =
          system_config(spec_, derive(seed, 10 + c), obs_.get(), horizon());
      cs.hpc_load = hpc_config(spec_);
      cs.hpc_seed = derive(seed, 100 + c) | 1;  // 0 would mean "derive"
      gcfg.clusters.push_back(std::move(cs));
    }
    gateway_ = std::make_unique<fed::FederatedGateway>(sim_, std::move(gcfg));
    for (const std::string& name : function_names_) {
      gateway_->register_function(function_spec(name));
    }
    clusters_.resize(spec_.clusters);
    for (std::uint32_t c = 0; c < spec_.clusters; ++c) {
      clusters_[c].system = &gateway_->cluster(c);
    }
  }
  for (ClusterProbe& probe : clusters_) attach_probe(probe);

  // Open-loop Poisson schedule over the window, drawn up front from the
  // seed: the simulator only ever sees the resulting calls.
  if (spec_.qps > 0) {
    SplitMix rng{derive(seed, 4)};
    const std::uint32_t hot = std::min(spec_.hot_functions, spec_.functions);
    const double window_s = spec_.window.to_seconds();
    arrivals_.reserve(static_cast<std::size_t>(spec_.qps * window_s * 1.01));
    for (double t = 0.0;;) {
      t += -std::log1p(-rng.uniform()) / spec_.qps;
      if (t >= window_s) break;
      std::uint32_t fn;
      if (spec_.hot_share > 0 && rng.uniform() < spec_.hot_share) {
        fn = static_cast<std::uint32_t>(rng.uniform() * hot);
      } else {
        const std::uint32_t rest = spec_.functions - hot;
        fn = hot + static_cast<std::uint32_t>(rng.uniform() * rest);
      }
      arrivals_.push_back(
          {spec_.burn_in + sim::SimTime::micros(std::llround(t * 1e6)), fn});
    }
  }

  if (gateway_) {
    gateway_->start();
  } else {
    hpc_load_->start();
    system_->start();
  }
  if (!arrivals_.empty()) arm_arrival(0);
}

World::~World() = default;

std::vector<slurm::Reservation> World::maintenance_windows() const {
  if (!spec_.reservations) return {};
  return rolling_reservations(spec_.nodes, horizon());
}

void World::attach_probe(ClusterProbe& probe) {
  core::HpcWhiskSystem& system = *probe.system;
  probe.node_log = std::make_unique<hpcwhisk::analysis::NodeStateLog>(
      system.slurm().node_count(), sim_.now());
  system.slurm().set_node_observer(
      [log = probe.node_log.get()](const slurm::NodeTransition& t) {
        log->record(t);
      });
  system.slurm().set_job_observer([&probe](const slurm::JobEvent& ev) {
    record_job_event(probe.jobs, ev);
  });
  system.controller().set_terminal_observer(
      [&probe](const whisk::ActivationRecord& rec) {
        if (rec.id >= probe.terminal_seen.size()) {
          probe.terminal_seen.resize(rec.id + 1, 0);
        }
        if (probe.terminal_seen[rec.id] < 255) ++probe.terminal_seen[rec.id];
      });
}

void World::arm_arrival(std::size_t i) {
  sim_.at(arrivals_[i].at, [this, i] { fire_arrival(i); });
}

void World::fire_arrival(std::size_t i) {
  const std::string& fn = function_names_[arrivals_[i].function];
  if (gateway_) {
    if (spans_ != nullptr) {
      const std::uint32_t s = spans_->open(SpanName::kInvoke);
      (void)gateway_->invoke(fn);
      spans_->close(s);
    } else {
      (void)gateway_->invoke(fn);
    }
  } else {
    if (spans_ != nullptr) {
      const std::uint32_t s = spans_->open(SpanName::kSubmit);
      (void)system_->controller().submit(fn);
      spans_->close(s);
    } else {
      (void)system_->controller().submit(fn);
    }
  }
  ++issued_;
  if (i + 1 < arrivals_.size()) arm_arrival(i + 1);
}

double World::run_slices(sim::SimTime until, SpanRecorder* spans) {
  spans_ = spans;
  const sim::SimTime slice = sim::SimTime::seconds(60);
  const std::int64_t start_ns = now_ns();
  for (sim::SimTime t = sim_.now(); t < until;) {
    t = std::min(t + slice, until);
    if (spans != nullptr) {
      const std::uint32_t s = spans->open(SpanName::kSlice);
      sim_.run_until(t);
      spans->close(s);
    } else {
      sim_.run_until(t);
    }
  }
  const std::int64_t end_ns = now_ns();
  spans_ = nullptr;
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double World::run_burn_in(SpanRecorder* spans) {
  return run_slices(measure_start(), spans);
}

double World::run_window(SpanRecorder* spans) {
  const double host_s = run_slices(horizon(), spans);
  for (ClusterProbe& probe : clusters_) probe.node_log->finalize(sim_.now());
  return host_s;
}

World::HostTimes World::run(SpanRecorder* spans) {
  const double burn_in_s = run_burn_in(spans);
  return {burn_in_s, run_window(spans)};
}

void World::add_to(Tally& tally) const {
  const sim::SimTime from = measure_start();
  const sim::SimTime to = measure_end();
  for (const ClusterProbe& probe : clusters_) {
    // Slurm-level coverage of originally idle node time (Tables II/III)
    // from 10-s samples of the node-state log, as the paper samples it.
    for (const auto& s :
         probe.node_log->sample_counts(sim::SimTime::seconds(10))) {
      if (s.at < from || s.at >= to) continue;
      tally.pilot_samples += s.pilot;
      tally.available_samples += s.available();
    }
    const auto& h = probe.system->manager().harvest();
    tally.harvested_s += h.harvested.to_seconds();
    tally.occupied_s += (h.harvested + h.warmup_overhead + h.drain_overhead +
                         h.preempt_wasted)
                            .to_seconds();
    // Queue wait of prime (tier > 0) jobs that started in the window.
    for (const auto& [id, job] : probe.jobs) {
      if (job.tier > 0 && job.start >= from && job.start < to) {
        tally.hpc_waits_s.push_back((job.start - job.submit).to_seconds());
      }
    }
    for (const whisk::ActivationRecord& rec :
         probe.system->controller().activations()) {
      if (rec.state != whisk::ActivationState::kCompleted) continue;
      tally.latencies_s.push_back(rec.response_time().to_seconds());
      if (rec.cold_start) ++tally.cold;
    }
  }
  if (gateway_) {
    for (const auto& rec : gateway_->cloud_service().invocations()) {
      if (rec.end_time <= rec.submit_time) continue;  // never finished
      tally.latencies_s.push_back(
          (rec.end_time - rec.submit_time).to_seconds());
      if (rec.cold_start) ++tally.cold;
    }
    tally.gateway_calls += gateway_->counters().invocations;
    tally.cloud_calls += gateway_->counters().cloud_calls;
  }
  tally.issued += issued_;
}

}  // namespace perfbench
