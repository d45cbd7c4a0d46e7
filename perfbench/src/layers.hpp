#pragma once
// Per-layer metrics of the traced run: span statistics taken around the
// calls into the simulator, the program's own counters (obs plane on),
// and Slurm pass probes timed on the state the run left behind.

#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
};

/// `world` is a finished traced instance; `traced` its host times and
/// `untraced_s` the host time of a whole untraced run of the same
/// instance in the same process.
/// `pooled` holds the simulated outcomes of all the run's instances.
/// Runs the Slurm probes, so it mutates `world` and appends their spans
/// to `spans`.
std::vector<Metric> layer_metrics(World& world, SpanRecorder& spans,
                                  World::HostTimes traced, double untraced_s,
                                  const Outcomes& pooled);

}  // namespace perfbench
