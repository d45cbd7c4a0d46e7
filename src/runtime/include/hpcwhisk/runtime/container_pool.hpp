#pragma once
// Per-node container pool: warm reuse, LRU eviction, concurrency cap.
//
// An OpenWhisk invoker keeps containers warm per function so repeated
// calls skip the cold start; when memory runs out it evicts idle
// containers. The node-wide cap on concurrently existing containers is
// load-bearing for reproduction: Sec. V-C reports an episode (14:30-17:00)
// where invokers hit "the upper limit of concurrently running container
// processes which resulted in an increased number of failed invocations".

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcwhisk/runtime/runtime_profile.hpp"
#include "hpcwhisk/sim/rng.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::runtime {

using ContainerId = std::uint64_t;

enum class ContainerState { kWarming, kIdle, kBusy, kRemoved };

struct Container {
  ContainerId id{0};
  /// Function this container is specialized for; empty for prewarmed
  /// ("stem cell") containers that only carry a runtime kind.
  std::string function;
  /// Runtime kind (image family), e.g. "python:3".
  std::string kind;
  std::int64_t memory_mb{0};
  ContainerState state{ContainerState::kWarming};
  sim::SimTime created_at;
  sim::SimTime last_used;
  /// Prewarmed containers finish booting at this instant.
  sim::SimTime usable_at;
};

/// Result of asking the pool for an execution slot.
struct AcquireResult {
  enum class Kind {
    kWarm,       ///< reusing a warm container specialized for the function
    kPrewarmed,  ///< specialized a matching stem-cell container
    kCold,       ///< new container; start after a full cold start
    kRejected,   ///< node is saturated (cap/memory) and nothing evictable
  };
  Kind kind{Kind::kRejected};
  ContainerId container{0};
  sim::SimTime start_latency;  ///< includes any eviction cost paid first
};

/// Container keep-alive (idle-timeout) policy family (*Has Your FaaS
/// Application Been Decommissioned Yet?*, PAPERS.md: the keep-alive
/// policy dominates cold-start rate under real traffic).
enum class KeepAlivePolicy : std::uint8_t {
  /// Every idle container lives Config::idle_timeout — the historical
  /// single hardcoded constant (OpenWhisk's 10 minutes).
  kFixed,
  /// Per-function timeout proportional to the function's inter-arrival
  /// EWMA, clamped to [floor, ceiling]: rarely-called functions release
  /// memory early, hot functions never lose their container to a timer.
  kAdaptive,
  /// kAdaptive further scaled down toward `floor` as pool occupancy
  /// (containers or memory, whichever is tighter) crosses
  /// [pressure_low, pressure_high] — keep-alive generosity is a luxury
  /// of an empty node.
  kHybrid,
};

[[nodiscard]] const char* to_string(KeepAlivePolicy p);
[[nodiscard]] std::optional<KeepAlivePolicy> keep_alive_policy_from_string(
    const std::string& name);

struct KeepAliveConfig {
  KeepAlivePolicy policy{KeepAlivePolicy::kFixed};
  /// kAdaptive/kHybrid: timeout = clamp(margin * interarrival EWMA).
  double margin{4.0};
  sim::SimTime floor{sim::SimTime::seconds(30)};
  sim::SimTime ceiling{sim::SimTime::minutes(20)};
  /// Inter-arrival EWMA smoothing factor.
  double alpha{0.25};
  /// kHybrid occupancy band: below low the adaptive timeout applies
  /// untouched, above high only `floor` remains.
  double pressure_low{0.5};
  double pressure_high{0.9};
  /// Cadence of the invoker-side reap_idle() sweep. Zero (the default)
  /// disables periodic reaping — the historical behavior, where idle
  /// containers die only by eviction pressure.
  sim::SimTime reap_interval{sim::SimTime::zero()};
};

class ContainerPool {
 public:
  struct Config {
    /// Memory available to containers on the node (Prometheus node:
    /// 128 GB, minus system reserve).
    std::int64_t memory_mb{120 * 1024};
    /// Hard cap on concurrently existing containers on the node.
    std::size_t max_containers{64};
    /// Idle containers older than this are reaped by reap_idle() under
    /// KeepAlivePolicy::kFixed (and as the fallback before a function
    /// has arrival history under the adaptive policies).
    sim::SimTime idle_timeout{sim::SimTime::minutes(10)};
    /// Pluggable keep-alive policy; the default (kFixed) reproduces the
    /// historical behavior exactly.
    KeepAliveConfig keep_alive{};
    /// Stem-cell pool (OpenWhisk prewarm): generic containers of this
    /// kind are kept booted so the first call of a new function pays
    /// only a specialization latency instead of a full cold start.
    std::string prewarm_kind{"python:3"};
    std::size_t prewarm_count{2};
    std::int64_t prewarm_memory_mb{256};
  };

  ContainerPool(Config config, RuntimeProfile profile, sim::Rng rng);

  /// Requests a slot to run `function` (memory footprint `memory_mb`).
  /// Prefers a warm idle container for the same function; otherwise tries
  /// a cold start, evicting idle containers (oldest-first) if the cap or
  /// memory budget requires. Rejected iff the node cannot host the
  /// container even after evicting everything idle.
  AcquireResult acquire(const std::string& function, std::int64_t memory_mb,
                        sim::SimTime now);
  /// As above, with the function's runtime kind: a booted stem cell of a
  /// matching kind is specialized in preference to a cold start.
  AcquireResult acquire(const std::string& function, const std::string& kind,
                        std::int64_t memory_mb, sim::SimTime now);

  /// Tops the stem-cell pool back up to prewarm_count (capacity
  /// permitting; stem cells never evict warm containers). Call
  /// periodically (the invoker does so on every poll tick). The common
  /// case — pool already topped up — returns after one inline size
  /// check, so the per-tick cost is a compare, not a call.
  void maintain_prewarm(sim::SimTime now) {
    if (prewarm_full()) return;
    refill_prewarm(now);
  }
  /// Whether maintain_prewarm() has nothing to do.
  [[nodiscard]] bool prewarm_full() const {
    return prewarmed_.size() >= config_.prewarm_count ||
           config_.prewarm_kind.empty();
  }

  /// Marks a previously acquired container busy (call when its start
  /// latency elapsed and execution begins).
  void mark_running(ContainerId id, sim::SimTime now);

  /// Returns a busy container to the warm (idle) set.
  void release(ContainerId id, sim::SimTime now);

  /// Destroys a container outright (e.g. the execution was interrupted
  /// by a drain and the invoker is shutting down).
  void remove(ContainerId id);

  /// Evicts idle containers unused for longer than their keep-alive
  /// timeout (per-function under the adaptive policies). Returns how
  /// many were reaped.
  std::size_t reap_idle(sim::SimTime now);

  /// The keep-alive timeout currently in force for `function`: the
  /// fixed idle_timeout, or the per-function adaptive value (pressure-
  /// scaled under kHybrid). Exposed for tests and observability.
  [[nodiscard]] sim::SimTime effective_idle_timeout(
      const std::string& function) const;

  /// True if an idle warm container for `function` (>= memory_mb) exists,
  /// i.e. an acquire right now would be a warm resume.
  [[nodiscard]] bool has_warm_idle(const std::string& function,
                                   std::int64_t memory_mb) const;

  /// True if a new container of `memory_mb` fits without evicting
  /// anything (the same admission rule refill_prewarm uses). Conservative
  /// headroom probe for the direct-invoke seam: when it is false a direct
  /// call would evict warm containers or be rejected outright, so callers
  /// should fall back to the queue path instead.
  [[nodiscard]] bool can_admit(std::int64_t memory_mb) const {
    return containers_.size() < config_.max_containers &&
           memory_in_use_mb_ + memory_mb <= config_.memory_mb;
  }

  /// Destroys every container (node handed back to the HPC workload).
  void clear();

  [[nodiscard]] std::size_t total_containers() const { return containers_.size(); }
  [[nodiscard]] std::size_t busy_containers() const { return busy_count_; }
  [[nodiscard]] std::size_t idle_containers() const;
  [[nodiscard]] std::size_t prewarmed_containers() const {
    return prewarmed_.size();
  }
  [[nodiscard]] std::int64_t memory_in_use_mb() const { return memory_in_use_mb_; }

  struct Counters {
    std::uint64_t warm_hits{0};
    std::uint64_t prewarm_hits{0};
    std::uint64_t cold_starts{0};
    std::uint64_t rejections{0};
    std::uint64_t evictions{0};
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  /// Evicts idle containers until `memory_mb` fits and the count cap
  /// allows one more. Returns total removal latency, or nullopt if
  /// impossible.
  std::optional<sim::SimTime> make_room(std::int64_t memory_mb);

  /// Slow path of maintain_prewarm(): boots stem cells until the pool is
  /// full or capacity runs out.
  void refill_prewarm(sim::SimTime now);

  /// Folds an acquire into the function's inter-arrival EWMA (adaptive
  /// keep-alive policies only; kFixed never touches the map).
  void note_arrival(const std::string& function, sim::SimTime now);

  struct InterArrival {
    sim::SimTime last;
    double ewma_us{0.0};
    std::uint64_t count{0};
  };

  Config config_;
  RuntimeProfile profile_;
  sim::Rng rng_;
  std::unordered_map<ContainerId, Container> containers_;
  /// Idle containers in LRU order (front = least recently used).
  std::list<ContainerId> idle_lru_;
  /// Booted (or booting) stem cells awaiting specialization.
  std::list<ContainerId> prewarmed_;
  std::size_t busy_count_{0};
  std::int64_t memory_in_use_mb_{0};
  ContainerId next_id_{1};
  /// Per-function arrival stats for the adaptive keep-alive policies;
  /// empty (never populated) under kFixed.
  std::unordered_map<std::string, InterArrival> arrivals_;
  Counters counters_;
};

}  // namespace hpcwhisk::runtime
