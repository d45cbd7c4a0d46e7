#include "hpcwhisk/runtime/container_pool.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hpcwhisk::runtime {

const char* to_string(KeepAlivePolicy p) {
  switch (p) {
    case KeepAlivePolicy::kFixed: return "fixed";
    case KeepAlivePolicy::kAdaptive: return "adaptive";
    case KeepAlivePolicy::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<KeepAlivePolicy> keep_alive_policy_from_string(
    const std::string& name) {
  for (const KeepAlivePolicy p :
       {KeepAlivePolicy::kFixed, KeepAlivePolicy::kAdaptive,
        KeepAlivePolicy::kHybrid}) {
    if (name == to_string(p)) return p;
  }
  return std::nullopt;
}

ContainerPool::ContainerPool(Config config, RuntimeProfile profile,
                             sim::Rng rng)
    : config_{config}, profile_{profile}, rng_{rng} {}

AcquireResult ContainerPool::acquire(FunctionId function,
                                     std::int64_t memory_mb, sim::SimTime now) {
  return acquire(function, std::string{}, memory_mb, now);
}

AcquireResult ContainerPool::acquire(FunctionId function,
                                     const std::string& kind,
                                     std::int64_t memory_mb, sim::SimTime now) {
  if (config_.keep_alive.policy != KeepAlivePolicy::kFixed)
    note_arrival(function, now);
  // 1. Warm hit: scan the idle LRU (newest-first so the hottest container
  //    is reused) for a container of the same function.
  for (auto it = idle_lru_.rbegin(); it != idle_lru_.rend(); ++it) {
    Container& c = containers_.at(*it);
    if (c.function == function && c.memory_mb >= memory_mb) {
      idle_lru_.erase(std::next(it).base());
      c.state = ContainerState::kWarming;  // warm resume
      c.last_used = now;
      ++counters_.warm_hits;
      return AcquireResult{AcquireResult::Kind::kWarm, c.id,
                           profile_.sample_warm_start(rng_)};
    }
  }

  // 2. Stem-cell hit: specialize a booted prewarmed container of the
  //    matching kind (OpenWhisk pays roughly a warm start here, not a
  //    cold one — the sandbox already exists).
  if (!kind.empty() && kind == config_.prewarm_kind) {
    for (auto it = prewarmed_.begin(); it != prewarmed_.end(); ++it) {
      Container& c = containers_.at(*it);
      if (c.usable_at > now || c.memory_mb < memory_mb) continue;
      prewarmed_.erase(it);
      c.function = function;
      c.state = ContainerState::kWarming;
      c.last_used = now;
      ++counters_.prewarm_hits;
      return AcquireResult{AcquireResult::Kind::kPrewarmed, c.id,
                           profile_.sample_warm_start(rng_)};
    }
  }

  // 3. Cold start, evicting idle containers if needed.
  const auto eviction_latency = make_room(memory_mb);
  if (!eviction_latency) {
    ++counters_.rejections;
    return AcquireResult{};  // kRejected
  }

  Container c;
  c.id = next_id_++;
  c.function = function;
  c.memory_mb = memory_mb;
  c.state = ContainerState::kWarming;
  c.created_at = now;
  c.last_used = now;
  memory_in_use_mb_ += memory_mb;
  const ContainerId id = c.id;
  containers_.emplace(id, std::move(c));
  ++counters_.cold_starts;
  return AcquireResult{AcquireResult::Kind::kCold, id,
                       *eviction_latency + profile_.sample_cold_start(rng_)};
}

bool ContainerPool::has_warm_idle(FunctionId function,
                                  std::int64_t memory_mb) const {
  for (const ContainerId id : idle_lru_) {
    const Container& c = containers_.at(id);
    if (c.function == function && c.memory_mb >= memory_mb) return true;
  }
  return false;
}

std::optional<sim::SimTime> ContainerPool::make_room(std::int64_t memory_mb) {
  if (memory_mb > config_.memory_mb) return std::nullopt;  // can never fit
  sim::SimTime latency = sim::SimTime::zero();
  while (containers_.size() >= config_.max_containers ||
         memory_in_use_mb_ + memory_mb > config_.memory_mb) {
    // Stem cells are the cheapest victims, then idle warm containers.
    ContainerId victim;
    if (!prewarmed_.empty()) {
      victim = prewarmed_.front();
      prewarmed_.pop_front();
    } else if (!idle_lru_.empty()) {
      victim = idle_lru_.front();
      idle_lru_.pop_front();
    } else {
      return std::nullopt;  // all remaining are busy
    }
    const auto it = containers_.find(victim);
    assert(it != containers_.end());
    memory_in_use_mb_ -= it->second.memory_mb;
    containers_.erase(it);
    latency += profile_.sample_remove(rng_);
    ++counters_.evictions;
  }
  return latency;
}

void ContainerPool::refill_prewarm(sim::SimTime now) {
  while (prewarmed_.size() < config_.prewarm_count) {
    // Never evict for stem cells: only use genuinely free capacity.
    if (containers_.size() >= config_.max_containers) return;
    if (memory_in_use_mb_ + config_.prewarm_memory_mb > config_.memory_mb)
      return;
    Container c;
    c.id = next_id_++;
    c.kind = config_.prewarm_kind;
    c.memory_mb = config_.prewarm_memory_mb;
    c.state = ContainerState::kIdle;
    c.created_at = now;
    c.last_used = now;
    c.usable_at = now + profile_.sample_cold_start(rng_);
    memory_in_use_mb_ += c.memory_mb;
    const ContainerId id = c.id;
    containers_.emplace(id, std::move(c));
    prewarmed_.push_back(id);
  }
}

void ContainerPool::mark_running(ContainerId id, sim::SimTime now) {
  auto& c = containers_.at(id);
  if (c.state != ContainerState::kWarming)
    throw std::logic_error("mark_running: container not warming");
  c.state = ContainerState::kBusy;
  c.last_used = now;
  ++busy_count_;
}

void ContainerPool::release(ContainerId id, sim::SimTime now) {
  auto& c = containers_.at(id);
  if (c.state != ContainerState::kBusy)
    throw std::logic_error("release: container not busy");
  c.state = ContainerState::kIdle;
  c.last_used = now;
  --busy_count_;
  idle_lru_.push_back(id);
}

void ContainerPool::remove(ContainerId id) {
  const auto it = containers_.find(id);
  if (it == containers_.end()) return;
  if (it->second.state == ContainerState::kBusy) {
    --busy_count_;
  } else if (it->second.state == ContainerState::kIdle) {
    idle_lru_.remove(id);
    prewarmed_.remove(id);
  }
  memory_in_use_mb_ -= it->second.memory_mb;
  containers_.erase(it);
}

void ContainerPool::note_arrival(FunctionId function, sim::SimTime now) {
  if (function.value() >= arrivals_.size())
    arrivals_.resize(function.value() + 1);
  InterArrival& a = arrivals_[function.value()];
  if (a.count > 0) {
    const auto gap = static_cast<double>((now - a.last).ticks());
    a.ewma_us =
        a.count == 1 ? gap : a.ewma_us + config_.keep_alive.alpha * (gap - a.ewma_us);
  }
  a.last = now;
  ++a.count;
}

sim::SimTime ContainerPool::effective_idle_timeout(
    FunctionId function) const {
  const KeepAliveConfig& ka = config_.keep_alive;
  if (ka.policy == KeepAlivePolicy::kFixed) return config_.idle_timeout;
  sim::SimTime base = config_.idle_timeout;  // no history yet: old behavior
  if (function.value() < arrivals_.size() &&
      arrivals_[function.value()].count >= 2) {
    base = std::clamp(sim::SimTime::micros(static_cast<std::int64_t>(
                          ka.margin * arrivals_[function.value()].ewma_us)),
                      ka.floor, ka.ceiling);
  }
  if (ka.policy == KeepAlivePolicy::kAdaptive || base <= ka.floor) return base;
  // kHybrid: occupancy pressure eats the margin above the floor.
  const double by_count =
      config_.max_containers == 0
          ? 0.0
          : static_cast<double>(containers_.size()) /
                static_cast<double>(config_.max_containers);
  const double by_memory =
      config_.memory_mb <= 0
          ? 0.0
          : static_cast<double>(memory_in_use_mb_) /
                static_cast<double>(config_.memory_mb);
  const double occupancy = std::max(by_count, by_memory);
  const double band = std::max(1e-9, ka.pressure_high - ka.pressure_low);
  const double p =
      std::clamp((occupancy - ka.pressure_low) / band, 0.0, 1.0);
  const auto above_floor = static_cast<double>((base - ka.floor).ticks());
  return base - sim::SimTime::micros(static_cast<std::int64_t>(p * above_floor));
}

std::size_t ContainerPool::reap_idle(sim::SimTime now) {
  std::size_t reaped = 0;
  const bool fixed = config_.keep_alive.policy == KeepAlivePolicy::kFixed;
  for (auto it = idle_lru_.begin(); it != idle_lru_.end();) {
    const Container& c = containers_.at(*it);
    const sim::SimTime timeout =
        fixed ? config_.idle_timeout : effective_idle_timeout(c.function);
    if (now - c.last_used > timeout) {
      memory_in_use_mb_ -= c.memory_mb;
      containers_.erase(*it);
      it = idle_lru_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  return reaped;
}

void ContainerPool::clear() {
  containers_.clear();
  idle_lru_.clear();
  prewarmed_.clear();
  busy_count_ = 0;
  memory_in_use_mb_ = 0;
}

std::size_t ContainerPool::idle_containers() const { return idle_lru_.size(); }

}  // namespace hpcwhisk::runtime
