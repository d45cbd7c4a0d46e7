#pragma once
// In-memory span recorder for the traced run. Spans are taken from the
// benchmark's own code around its calls into the simulator (simulation
// slices, Controller::submit, FederatedGateway::invoke, Slurm probes),
// kept in a flat vector and written out once the run ends.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint32_t {
  kSetup,
  kSlice,
  kSubmit,
  kInvoke,
  kSchedPass,
  kAvailability,
};

inline const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kSetup: return "setup";
    case SpanName::kSlice: return "sim.slice";
    case SpanName::kSubmit: return "whisk.submit";
    case SpanName::kInvoke: return "fed.invoke";
    case SpanName::kSchedPass: return "slurm.schedule_now";
    case SpanName::kAvailability: return "slurm.availability_snapshot";
  }
  return "?";
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t parent{kNoParent};  ///< index into the recorder, or none
  SpanName name{SpanName::kSlice};
  std::uint32_t run{0};

  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// `expected` spans are reserved up front, so recording never
  /// reallocates in the middle of a timed run.
  SpanRecorder(std::uint32_t run, std::size_t expected) : run_{run} {
    spans_.reserve(expected);
  }

  /// Opens a span whose parent is the innermost open one.
  std::uint32_t open(SpanName name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, current_, name, run_});
    current_ = index;
    return index;
  }
  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    current_ = spans_[index].parent;
  }

  /// Records a span timed by the caller, under the innermost open one.
  void add(SpanName name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({start_ns, end_ns, current_, name, run_});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the trace as text. Setup, slice and probe spans get one line
  /// each: `span <run> <index> <parent|-1> <name> <start_ns> <end_ns>`.
  /// Per-call spans (submit, invoke; millions per run) are folded into
  /// one line per parent slice: `calls <run> <parent> <name> <count>
  /// <total_ns> <max_ns>`. Their full distribution is in the metrics.
  void write(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t current_{Span::kNoParent};
  std::uint32_t run_;
};

}  // namespace perfbench
