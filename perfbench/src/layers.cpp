#include "layers.hpp"

#include <utility>

#include "hpcwhisk/analysis/stats.hpp"

namespace perfbench {

namespace whisk = hpcwhisk::whisk;

namespace {

double pct(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : hpcwhisk::analysis::percentile(std::move(v), q);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median host time of `fn` over repeated calls, each in its own span;
/// at least 5 calls, then until ~0.25 s has been spent.
template <typename Fn>
double probe_us(SpanRecorder& spans, SpanName name, Fn&& fn) {
  std::vector<double> us;
  const std::int64_t budget_end = now_ns() + 250'000'000;
  while (us.size() < 5 || (now_ns() < budget_end && us.size() < 1000)) {
    const std::uint32_t s = spans.open(name);
    fn();
    spans.close(s);
    us.push_back(static_cast<double>(spans.spans()[s].duration_ns()) / 1e3);
  }
  return pct(std::move(us), 0.5);
}

}  // namespace

std::vector<Metric> layer_metrics(World& world, SpanRecorder& spans,
                                  World::HostTimes traced, double untraced_s,
                                  const Outcomes& pooled) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };

  // --- sim: slices and their self time (minus the calls inside them).
  std::vector<double> slice_ms, submit_ns, invoke_ns;
  std::vector<double> child_ns(spans.spans().size(), 0.0);
  double submit_total = 0, invoke_total = 0;
  for (const Span& s : spans.spans()) {
    const auto d = static_cast<double>(s.duration_ns());
    if (s.name == SpanName::kSlice) slice_ms.push_back(d / 1e6);
    if (s.name == SpanName::kSubmit || s.name == SpanName::kInvoke) {
      (s.name == SpanName::kSubmit ? submit_ns : invoke_ns).push_back(d);
      (s.name == SpanName::kSubmit ? submit_total : invoke_total) += d;
      if (s.parent != Span::kNoParent) child_ns[s.parent] += d;
    }
  }
  double slice_self_ns = 0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    if (s.name == SpanName::kSlice) {
      slice_self_ns += static_cast<double>(s.duration_ns()) - child_ns[i];
    }
  }
  const double traced_s = traced.burn_in_s + traced.window_s;
  const double wall_ns = traced_s * 1e9;
  const auto events =
      static_cast<double>(world.simulation().executed_events());
  add("sim.events", events, "count");
  add("sim.ns_per_event", ratio(wall_ns, events), "ns");
  add("sim.slice_ms.p50", pct(slice_ms, 0.50), "ms");
  add("sim.slice_ms.p99", pct(slice_ms, 0.99), "ms");
  add("sim.self_share", ratio(slice_self_ns, wall_ns), "share");
  add("sim.burn_in_share", ratio(traced.burn_in_s, traced_s), "share");

  // --- Program counters, summed over clusters.
  double passes = 0, started = 0, preempted = 0;
  double served = 0, never_served = 0, hard_killed = 0;
  double accepted = 0, rejected = 0, requeued = 0, timed_out = 0;
  double routes = 0, tracked = 0;
  double lease_hits = 0, lease_granted = 0, lease_fallback = 0;
  std::vector<double> queue_wait_s;
  for (const ClusterProbe& probe : world.clusters()) {
    auto& system = *probe.system;
    const auto& sc = system.slurm().counters();
    passes += static_cast<double>(sc.sched_passes);
    started += static_cast<double>(sc.started);
    preempted += static_cast<double>(sc.preempted);
    const auto& h = system.manager().harvest();
    served += static_cast<double>(h.pilots_served);
    never_served += static_cast<double>(h.pilots_never_served);
    hard_killed +=
        static_cast<double>(system.manager().counters().hard_killed);
    const auto& cc = system.controller().counters();
    accepted += static_cast<double>(cc.accepted);
    rejected += static_cast<double>(cc.rejected_503);
    requeued += static_cast<double>(cc.requeued);
    timed_out += static_cast<double>(cc.timed_out);
    lease_hits += static_cast<double>(cc.lease_hits);
    lease_granted += static_cast<double>(cc.lease_granted);
    lease_fallback += static_cast<double>(cc.lease_fallback);
    if (const auto* sched = system.controller().scheduler()) {
      routes += static_cast<double>(sched->stats().decisions);
      tracked += static_cast<double>(sched->estimator().tracked_functions());
    }
    for (const whisk::ActivationRecord& rec :
         system.controller().activations()) {
      if (rec.state == whisk::ActivationState::kCompleted) {
        queue_wait_s.push_back(rec.queue_wait().to_seconds());
      }
    }
  }

  // --- slurm: pass cost probed on the end state of the first cluster.
  auto& ctld = world.clusters()[0].system->slurm();
  const double pass_us =
      probe_us(spans, SpanName::kSchedPass, [&ctld] { ctld.schedule_now(); });
  const double availability_us =
      probe_us(spans, SpanName::kAvailability,
               [&ctld] { (void)ctld.availability_snapshot(1); });
  add("slurm.sched_passes", passes, "count");
  add("slurm.jobs_started", started, "count");
  add("slurm.preempted", preempted, "count");
  add("slurm.pass_us", pass_us, "us");
  add("slurm.availability_us", availability_us, "us");
  add("slurm.pass_share", ratio(passes * pass_us * 1e3, wall_ns), "share");
  // Queue wait of prime jobs (the non-invasiveness claim), pooled over
  // the run's instances.
  add("slurm.hpc_jobs", static_cast<double>(pooled.hpc_jobs), "count");
  add("slurm.hpc_wait_s.p50", pooled.hpc_wait_p50_s, "s");
  add("slurm.hpc_wait_s.p95", pooled.hpc_wait_p95_s, "s");

  add("core.pilots_served", served, "count");
  add("core.pilots_never_served", never_served, "count");
  add("core.pilot_useful_ratio", ratio(served, served + never_served), "share");
  // Pilots that ended while still serving; with no node failures these
  // are the pilot-accounting violations (the known defect).
  add("core.hard_killed", hard_killed, "count");

  // --- Counters only the obs plane carries (shared by name across
  // clusters, so already federation-wide).
  auto& registry = world.obs()->metrics;
  registry.collect();
  const auto counter = [&registry](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  const double calls = static_cast<double>(world.issued());
  add("whisk.submit_ns.p50", pct(submit_ns, 0.50), "ns");
  add("whisk.submit_ns.p99", pct(submit_ns, 0.99), "ns");
  add("whisk.submit_share", ratio(submit_total, wall_ns), "share");
  add("whisk.accepted", accepted, "count");
  add("whisk.rejected_503", rejected, "count");
  add("whisk.requeued", requeued, "count");
  add("whisk.timed_out", timed_out, "count");
  add("whisk.invoker.capacity_failures",
      counter("whisk.invoker.capacity_failures"), "count");
  add("whisk.queue_wait_s.p99", pct(queue_wait_s, 0.99), "s");
  // Simulated call outcomes, pooled over the run's instances (fed4: the
  // cloud fallback's calls included).
  add("whisk.calls", static_cast<double>(pooled.faas_issued), "count");
  add("whisk.response_s.p50", pooled.faas_p50_s, "s");
  add("whisk.response_s.p99", pooled.faas_p99_s, "s");
  add("whisk.fail_share",
      ratio(static_cast<double>(pooled.faas_failed),
            static_cast<double>(pooled.faas_issued)),
      "share");
  add("whisk.events_per_call", ratio(events, calls), "count");

  add("mq.published", counter("mq.published"), "count");
  add("mq.consumed", counter("mq.consumed"), "count");
  add("mq.fast_lane.published", counter("mq.fast_lane.published"), "count");

  const double warm = counter("whisk.invoker.warm_hits");
  const double cold = counter("whisk.invoker.cold_starts");
  add("runtime.warm_hits", warm, "count");
  add("runtime.cold_starts", cold, "count");
  add("runtime.prewarm_hits", counter("whisk.invoker.prewarm_hits"), "count");
  add("runtime.warm_ratio", ratio(warm, warm + cold), "share");
  add("runtime.cold_start_share", pooled.cold_start_share, "share");

  add("sched.routes", routes, "count");
  add("sched.functions_tracked", tracked, "count");

  add("lease.hits", lease_hits, "count");
  add("lease.granted", lease_granted, "count");
  add("lease.fallback", lease_fallback, "count");
  add("lease.hit_ratio", ratio(lease_hits, accepted), "share");

  hpcwhisk::fed::FederatedGateway::Counters fc{};
  if (const auto* gw = world.gateway()) fc = gw->counters();
  add("fed.invoke_ns.p50", pct(invoke_ns, 0.50), "ns");
  add("fed.invoke_ns.p99", pct(invoke_ns, 0.99), "ns");
  add("fed.invoke_share", ratio(invoke_total, wall_ns), "share");
  add("fed.cluster_calls", static_cast<double>(fc.cluster_calls), "count");
  add("fed.cloud_calls", static_cast<double>(fc.cloud_calls), "count");
  add("fed.spillovers", static_cast<double>(fc.spillovers), "count");
  add("fed.cooldown_skips", static_cast<double>(fc.cooldown_skips), "count");
  add("fed.cloud_offload_share", pooled.cloud_offload_share, "share");

  add("obs.overhead_share", ratio(traced_s, untraced_s) - 1.0,
      "share");
  return m;
}

}  // namespace perfbench
