#include "hpcwhisk/lease/lease_manager.hpp"

namespace hpcwhisk::lease {

const char* to_string(Tier t) {
  switch (t) {
    case Tier::kCold: return "cold";
    case Tier::kWarm: return "warm";
    case Tier::kHot: return "hot";
  }
  return "?";
}

void LeaseManager::observe_arrival(FunctionId function, sim::SimTime now) {
  if (function.value() >= arrivals_.size())
    arrivals_.resize(function.value() + 1);
  Arrival& a = arrivals_[function.value()];
  if (a.count > 0) {
    const auto gap = static_cast<double>((now - a.last).ticks());
    a.ewma_us = a.count == 1 ? gap : a.ewma_us + config_.alpha * (gap - a.ewma_us);
  }
  a.last = now;
  ++a.count;
}

Tier LeaseManager::tier(FunctionId function) const {
  if (function.value() >= arrivals_.size()) return Tier::kCold;
  const Arrival& a = arrivals_[function.value()];
  if (a.count < config_.min_arrivals) return Tier::kCold;
  const auto ewma = sim::SimTime::micros(static_cast<std::int64_t>(a.ewma_us));
  if (ewma <= config_.hot_interarrival) return Tier::kHot;
  if (ewma <= config_.warm_interarrival) return Tier::kWarm;
  return Tier::kCold;
}

Lease* LeaseManager::active(FunctionId function) {
  if (function.value() >= leases_.size()) return nullptr;
  Lease& l = leases_[function.value()];
  return l.id != 0 ? &l : nullptr;
}

const Lease* LeaseManager::find(FunctionId function, sim::SimTime now) {
  Lease* l = active(function);
  if (l == nullptr) return nullptr;
  if (l->expires_at < now) {
    ++stats_.expired;
    drop(*l);
    return nullptr;
  }
  return l;
}

const Lease* LeaseManager::acquire(FunctionId function, WorkerId worker,
                                   sim::SimTime now) {
  if (active(function) != nullptr) return nullptr;
  std::size_t& held = per_worker_[worker];
  if (held >= config_.max_leases_per_worker) return nullptr;
  if (function.value() >= leases_.size()) leases_.resize(function.value() + 1);
  Lease& l = leases_[function.value()];
  l = Lease{};
  l.id = next_id_++;
  l.function = function;
  l.worker = worker;
  l.granted_at = now;
  l.expires_at = now + config_.term;
  ++held;
  ++lease_count_;
  ++stats_.granted;
  return &l;
}

bool LeaseManager::renew(FunctionId function, sim::SimTime now) {
  Lease* l = active(function);
  if (l == nullptr) return false;
  l->expires_at = now + config_.term;
  ++l->renewals;
  ++stats_.renewed;
  return true;
}

void LeaseManager::on_hit(FunctionId function, sim::SimTime now) {
  Lease* l = active(function);
  if (l == nullptr) return;
  ++l->hits;
  ++stats_.hits;
  if (config_.auto_renew) {
    l->expires_at = now + config_.term;
    ++l->renewals;
    ++stats_.renewed;
  }
}

bool LeaseManager::revoke(FunctionId function) {
  Lease* l = active(function);
  if (l == nullptr) return false;
  ++stats_.revoked;
  drop(*l);
  return true;
}

std::size_t LeaseManager::revoke_worker(WorkerId worker) {
  std::size_t revoked = 0;
  for (Lease& l : leases_) {
    if (l.id == 0 || l.worker != worker) continue;
    ++stats_.revoked;
    drop(l);
    ++revoked;
  }
  return revoked;
}

std::size_t LeaseManager::leases_on(WorkerId worker) const {
  const auto it = per_worker_.find(worker);
  return it == per_worker_.end() ? 0 : it->second;
}

sim::SimTime LeaseManager::interarrival(FunctionId function) const {
  if (function.value() >= arrivals_.size()) return sim::SimTime::zero();
  const Arrival& a = arrivals_[function.value()];
  if (a.count < 2) return sim::SimTime::zero();
  return sim::SimTime::micros(static_cast<std::int64_t>(a.ewma_us));
}

void LeaseManager::drop(Lease& lease) {
  const auto held = per_worker_.find(lease.worker);
  if (held != per_worker_.end() && held->second > 0) --held->second;
  lease.id = 0;
  --lease_count_;
}

}  // namespace hpcwhisk::lease
