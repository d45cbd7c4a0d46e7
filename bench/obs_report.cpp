// Observability acceptance bench: runs the canonical fib production day
// with FaaS load twice — untraced and traced — and emits BENCH_obs.json
// plus the traced run's artifacts (Perfetto trace JSON, metrics JSONL).
//
// What it proves:
//  * determinism — the traced and untraced runs fold the exact same
//    decision log (every activation's full lifecycle plus the scheduler
//    ledger) through obs::fnv1a; instrumentation that changed a single
//    decision fails the bench;
//  * coverage — the traced run exhibits at least one drain-induced
//    fast-lane reroute that landed on a different invoker, both in the
//    activation store and as a fast_lane_reroute trace event;
//  * artifact sanity — the exported trace self-validates with
//    obs::looks_like_perfetto_json (CI additionally parses it with
//    python3 when available).
//
// Cost is reported per run (untraced_run_s / traced_run_s: best-of-N
// seconds on the bench clock, process CPU time where available), not
// per event: idle invokers are not simulated tick by tick, so events/s
// no longer tracks the work done.
//
//   HW_BENCH_QUICK=1        quarter-scale run (CI smoke)
//   HW_OBS_REPS=<n>         timed reps per arm, best-of (default 5)
//   HW_SEED=<n>             base RNG seed (default 1)
//   HW_OBS_OUT=<p>          report path (default BENCH_obs.json)
//   HW_OBS_TRACE_OUT=<p>    Perfetto trace path (default obs_trace.json)
//   HW_OBS_METRICS_OUT=<p>  metrics JSONL path (default obs_metrics.jsonl)
//   HW_OBS_LOG_OUT=<p>      also write the untraced decision log there

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/bench_json.hpp"
#include "common/experiment.hpp"
#include "hpcwhisk/obs/export.hpp"

using namespace hpcwhisk;

namespace {

using Clock = std::chrono::steady_clock;

/// Process CPU seconds when the platform has them, wall seconds
/// otherwise. The overhead ratio below divides two of these, so what
/// matters is that both arms use the same clock; CPU time is preferred
/// because it does not charge either arm for time stolen by other
/// tenants of the host — on a busy single-core box wall-clock noise
/// can exceed the instrumentation cost being measured.
double now_seconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Everything behavioral about a finished run, serialized in a fixed
/// order: all activation lifecycles, the scheduler ledger, and the event
/// count. Tracing must not move a single byte of this.
std::string decision_log(const bench::ExperimentResult& r) {
  std::string log;
  for (const whisk::ActivationRecord& rec :
       r.system->controller().activations()) {
    log += std::to_string(rec.id);
    log += ' ';
    log += rec.function;
    log += ' ';
    log += whisk::to_string(rec.state);
    log += ' ';
    log += std::to_string(rec.submit_time.ticks());
    log += ' ';
    log += std::to_string(rec.first_start_time.ticks());
    log += ' ';
    log += std::to_string(rec.start_time.ticks());
    log += ' ';
    log += std::to_string(rec.end_time.ticks());
    log += ' ';
    log += std::to_string(rec.routed_to);
    log += ' ';
    log += std::to_string(rec.executed_by);
    log += ' ';
    log += std::to_string(rec.requeues);
    log += ' ';
    log += std::to_string(rec.interruptions);
    log += rec.cold_start ? " cold\n" : " warm\n";
  }
  const auto& sc = r.system->slurm().counters();
  log += "slurm ";
  log += std::to_string(sc.started);
  log += ' ';
  log += std::to_string(sc.preempted);
  log += ' ';
  log += std::to_string(sc.sched_passes);
  log += '\n';
  log += "events ";
  log += std::to_string(r.simulation->executed_events());
  log += '\n';
  return log;
}

struct RunOutcome {
  bench::ExperimentResult result;
  double wall_s{0};
  std::uint64_t log_hash{0};
  std::size_t log_bytes{0};
};

/// One timed rep: re-runs the experiment, keeps the fastest wall time
/// seen so far and the latest result (the sim is deterministic, so every
/// rep's result is byte-identical — only the wall time varies with host
/// noise). Best-of-N is the standard single-core noise killer: OS jitter
/// only ever adds time, so the minimum is the closest estimate of the
/// true cost of the run.
void measure_rep(RunOutcome& out, const bench::ExperimentConfig& cfg,
                 int rep) {
  {
    // Free the prior rep untimed. Move it out and let the destructor
    // run: member destruction order (reverse declaration) keeps obs
    // alive until after the system — pilot teardown records into it.
    // A plain `out.result = {}` would member-assign in declaration
    // order and free obs first.
    const bench::ExperimentResult dead = std::move(out.result);
  }
  const double start = now_seconds();
  out.result = bench::run_experiment(cfg);
  const double wall = now_seconds() - start;
  if (rep == 0 || wall < out.wall_s) out.wall_s = wall;
}

void finalize_log(RunOutcome& out, const char* dump_path = nullptr) {
  const std::string log = decision_log(out.result);
  out.log_hash = obs::fnv1a(log);
  out.log_bytes = log.size();
  if (dump_path != nullptr) std::ofstream{dump_path} << log;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

int main() {
#if defined(__GLIBC__)
  // Keep the trace buffer's large allocation on the heap between reps.
  // By default glibc mmap()s blocks this size and returns them to the
  // OS on free (and trims the heap top), so every traced rep would
  // re-pay tens of thousands of soft page faults plus ~64 MB of kernel
  // zero-fill inside the timed window — first-touch cost, not
  // instrumentation cost, which is what this bench measures.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const bool quick = std::getenv("HW_BENCH_QUICK") != nullptr;
  const std::string out_path = env_or("HW_OBS_OUT", "BENCH_obs.json");
  const std::string trace_path = env_or("HW_OBS_TRACE_OUT", "obs_trace.json");
  const std::string metrics_path =
      env_or("HW_OBS_METRICS_OUT", "obs_metrics.jsonl");

  // The canonical fib day plus the responsiveness FaaS load, with a
  // share of long interruptible functions: live drains then interrupt
  // in-flight executions and reroute them through the fast lane, the
  // path the coverage check below demands.
  bench::ExperimentConfig cfg;
  cfg.pilots = core::SupplyModel::kFib;
  cfg.faas_qps = 10.0;
  cfg.faas_functions = 100;
  cfg.faas_long_share = 0.3;
  cfg.faas_long_duration = sim::SimTime::seconds(45);
  cfg = bench::apply_env(cfg);
  cfg.trace_capacity = quick ? (1u << 21) : (1u << 23);
  if (std::getenv("HW_OBS_DIAG_TINY_TRACE") != nullptr) cfg.trace_capacity = 1;

  bench::ExperimentConfig untraced_cfg = cfg;
  untraced_cfg.observe = false;
  bench::ExperimentConfig traced_cfg = cfg;
  traced_cfg.observe = true;

  // Interleave the arms rep by rep so slow host drift (thermal,
  // background load) hits both equally instead of biasing whichever arm
  // runs last; best-of within each arm then strips the additive noise.
  const char* reps_env = std::getenv("HW_OBS_REPS");
  const int reps = reps_env != nullptr ? std::max(1, std::atoi(reps_env)) : 5;
  RunOutcome untraced;
  RunOutcome traced;
  for (int rep = 0; rep < reps; ++rep) {
    std::cout << "rep " << (rep + 1) << "/" << reps << ": untraced...\n";
    measure_rep(untraced, untraced_cfg, rep);
    std::cout << "rep " << (rep + 1) << "/" << reps << ": traced...\n";
    measure_rep(traced, traced_cfg, rep);
  }
  finalize_log(untraced, std::getenv("HW_OBS_LOG_OUT"));
  finalize_log(traced);

  const bool logs_identical = untraced.log_hash == traced.log_hash &&
                              untraced.log_bytes == traced.log_bytes;

  // Coverage: a drain interrupted a running execution and the fast lane
  // landed it on a *different* invoker.
  bool rerouted_in_store = false;
  for (const whisk::ActivationRecord& rec :
       traced.result.system->controller().activations()) {
    if (rec.requeues > 0 && rec.executed_by != whisk::kNoInvoker &&
        rec.routed_to != whisk::kNoInvoker &&
        rec.executed_by != rec.routed_to) {
      rerouted_in_store = true;
      break;
    }
  }
  std::uint64_t reroute_events = 0;
  const obs::TraceCollector& trace = traced.result.obs->trace;
  for (const obs::TraceEvent& ev : trace.events()) {
    if (std::string_view{ev.name} == "fast_lane_reroute") ++reroute_events;
  }
  const bool rerouted = rerouted_in_store && reroute_events > 0;

  // Export artifacts while the system (and thus every metrics collector)
  // is still alive.
  obs::ExportInfo info;
  info.run = "obs_report";
  info.seed = cfg.seed;
  traced.result.obs->metrics.collect();
  {
    std::ofstream os{trace_path};
    obs::write_perfetto_json(os, trace, info);
  }
  {
    std::ofstream os{metrics_path};
    obs::write_metrics_jsonl(os, traced.result.obs->metrics, info);
  }

  bool perfetto_valid = false;
  {
    std::ifstream is{trace_path};
    std::ostringstream buf;
    buf << is.rdbuf();
    perfetto_valid = obs::looks_like_perfetto_json(buf.str());
  }

  const std::uint64_t events = untraced.result.simulation->executed_events();
  const double untraced_eps =
      untraced.wall_s > 0 ? static_cast<double>(events) / untraced.wall_s : 0.0;
  const double traced_eps =
      traced.wall_s > 0
          ? static_cast<double>(traced.result.simulation->executed_events()) /
                traced.wall_s
          : 0.0;
  const double traced_overhead =
      untraced_eps > 0 ? 1.0 - traced_eps / untraced_eps : 0.0;

  // Harvest-efficiency ledger of the traced run (identical to the
  // untraced one: the decision-log hash above covers slurm counters).
  const core::JobManager::HarvestStats& hv =
      traced.result.system->manager().harvest();
  sim::SimTime cloud_offload;
  for (const cloud::LambdaService::InvocationRecord& inv :
       traced.result.system->commercial().invocations()) {
    cloud_offload += inv.internal_duration;
  }

  std::ofstream json{out_path};
  bench::write_meta_header(json, "obs_report", quick, cfg.seed);
  json << "  \"events\": " << events << ",\n"
       << "  \"untraced_run_s\": " << fmt_num(untraced.wall_s) << ",\n"
       << "  \"traced_run_s\": " << fmt_num(traced.wall_s) << ",\n"
       << "  \"untraced_events_per_sec\": " << fmt_num(untraced_eps) << ",\n"
       << "  \"traced_events_per_sec\": " << fmt_num(traced_eps) << ",\n"
       << "  \"traced_overhead\": " << fmt_num(traced_overhead) << ",\n"
       << "  \"decision_log_bytes\": " << untraced.log_bytes << ",\n"
       << "  \"decision_log_hash\": \"" << std::hex << untraced.log_hash
       << std::dec << "\",\n"
       << "  \"decision_logs_identical\": "
       << (logs_identical ? "true" : "false") << ",\n"
       << "  \"trace_events\": " << trace.size() << ",\n"
       << "  \"trace_dropped\": " << trace.dropped() << ",\n"
       << "  \"fast_lane_reroute_events\": " << reroute_events << ",\n"
       << "  \"reroute_across_invokers\": " << (rerouted ? "true" : "false")
       << ",\n"
       << "  \"metric_instruments\": "
       << traced.result.obs->metrics.instrument_count() << ",\n"
       << "  \"harvest\": {"
       << "\"harvested_node_s\": " << fmt_num(hv.harvested.to_seconds())
       << ", \"warmup_overhead_s\": " << fmt_num(hv.warmup_overhead.to_seconds())
       << ", \"drain_overhead_s\": " << fmt_num(hv.drain_overhead.to_seconds())
       << ", \"preempt_wasted_s\": " << fmt_num(hv.preempt_wasted.to_seconds())
       << ", \"efficiency\": " << fmt_num(hv.efficiency())
       << ", \"pilots_served\": " << hv.pilots_served
       << ", \"pilots_never_served\": " << hv.pilots_never_served
       << ", \"cloud_offload_s\": " << fmt_num(cloud_offload.to_seconds())
       << "},\n"
       << "  \"timeseries\": {"
       << "\"series\": " << traced.result.obs->series.series().size()
       << ", \"sweeps\": " << traced.result.obs->series.sweeps() << "},\n"
       << "  \"perfetto_valid\": " << (perfetto_valid ? "true" : "false")
       << "\n}\n";
  json.close();

  std::cout << "decision logs: "
            << (logs_identical ? "identical" : "DIVERGED (tracing changed "
                                               "behavior!)")
            << " (" << untraced.log_bytes << " bytes, hash 0x" << std::hex
            << untraced.log_hash << std::dec << ")\n"
            << "trace: " << trace.size() << " events (" << trace.dropped()
            << " dropped), " << reroute_events
            << " fast-lane reroutes, cross-invoker reroute "
            << (rerouted ? "present" : "ABSENT") << "\n"
            << "throughput: untraced " << fmt_num(untraced_eps)
            << " ev/s, traced " << fmt_num(traced_eps) << " ev/s (overhead "
            << fmt_num(traced_overhead * 100.0) << "%)\n"
            << "perfetto JSON: " << (perfetto_valid ? "valid" : "INVALID")
            << "\nharvest: " << fmt_num(hv.harvested.to_seconds())
            << " node-s served FaaS at efficiency " << fmt_num(hv.efficiency())
            << " (" << hv.pilots_served << " pilots served, "
            << hv.pilots_never_served << " wasted), cloud offload "
            << fmt_num(cloud_offload.to_seconds()) << " s\n"
            << "timeseries: " << traced.result.obs->series.series().size()
            << " series over " << traced.result.obs->series.sweeps()
            << " sweeps\n"
            << "wrote " << out_path << ", " << trace_path << ", "
            << metrics_path << "\n";

  const bool ok = logs_identical && rerouted && perfetto_valid;
  return ok ? 0 : 1;
}
