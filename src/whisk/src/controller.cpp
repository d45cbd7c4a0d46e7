#include "hpcwhisk/whisk/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::whisk {

const char* to_string(ActivationState s) {
  switch (s) {
    case ActivationState::kQueued: return "queued";
    case ActivationState::kRunning: return "running";
    case ActivationState::kCompleted: return "completed";
    case ActivationState::kFailed: return "failed";
    case ActivationState::kTimedOut: return "timed-out";
    case ActivationState::kRejected503: return "rejected-503";
  }
  return "?";
}

const char* to_string(RouteMode m) {
  switch (m) {
    case RouteMode::kHashProbing: return "hash-probing";
    case RouteMode::kHashOnly: return "hash-only";
    case RouteMode::kRoundRobin: return "round-robin";
    case RouteMode::kLeastLoaded: return "least-loaded";
    case RouteMode::kLeastExpectedWork: return "least-expected-work";
    case RouteMode::kSjfAffinity: return "sjf-affinity";
  }
  return "?";
}

std::optional<RouteMode> route_mode_from_string(const std::string& name) {
  for (const RouteMode m :
       {RouteMode::kHashProbing, RouteMode::kHashOnly, RouteMode::kRoundRobin,
        RouteMode::kLeastLoaded, RouteMode::kLeastExpectedWork,
        RouteMode::kSjfAffinity}) {
    if (name == to_string(m)) return m;
  }
  return std::nullopt;
}

const char* to_string(InvokerHealth h) {
  switch (h) {
    case InvokerHealth::kHealthy: return "healthy";
    case InvokerHealth::kDraining: return "draining";
    case InvokerHealth::kUnresponsive: return "unresponsive";
    case InvokerHealth::kGone: return "gone";
  }
  return "?";
}

Controller::Controller(sim::Simulation& simulation, mq::Broker& broker,
                       const FunctionRegistry& registry, Config config)
    : sim_{simulation}, broker_{broker}, registry_{registry}, config_{config} {
  if (config_.heartbeat_interval <= sim::SimTime::zero() ||
      config_.heartbeat_miss_limit == 0)
    throw std::invalid_argument(
        "Controller: heartbeat_interval and heartbeat_miss_limit must be > 0");
  if (is_data_driven(config_.route_mode))
    scheduler_ = std::make_unique<sched::CallScheduler>(config_.sched);
  if (config_.lease.enabled)
    leases_ = std::make_unique<lease::LeaseManager>(config_.lease);
  sim_.every(config_.watchdog_interval, [this] { watchdog_sweep(); });
  HW_OBS_IF(config_.obs) {
    // Hot-path instruments resolved once; references stay valid for the
    // registry's lifetime.
    h_queue_wait_ =
        &config_.obs->metrics.histogram("whisk.activation.queue_wait_us");
    h_response_ =
        &config_.obs->metrics.histogram("whisk.activation.response_us");
    h_pred_error_ =
        &config_.obs->metrics.histogram("whisk.sched.prediction_error_us");
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("whisk.controller.submitted").set(counters_.submitted);
      m.counter("whisk.controller.accepted").set(counters_.accepted);
      m.counter("whisk.controller.rejected_503").set(counters_.rejected_503);
      m.counter("whisk.controller.completed").set(counters_.completed);
      m.counter("whisk.controller.failed").set(counters_.failed);
      m.counter("whisk.controller.timed_out").set(counters_.timed_out);
      m.counter("whisk.controller.requeued").set(counters_.requeued);
      m.counter("whisk.controller.interrupted").set(counters_.interrupted);
      m.counter("whisk.controller.unresponsive_detected")
          .set(counters_.unresponsive_detected);
      m.counter("whisk.controller.sequence_invocations")
          .set(counters_.sequence_invocations);
      m.gauge("whisk.controller.healthy_invokers")
          .set(static_cast<double>(healthy_count()));
      if (leases_) {
        const auto& ls = leases_->stats();
        m.counter("whisk.lease.hits").set(counters_.lease_hits);
        m.counter("whisk.lease.granted").set(ls.granted);
        m.counter("whisk.lease.renewed").set(ls.renewed);
        m.counter("whisk.lease.expired").set(ls.expired);
        m.counter("whisk.lease.revoked").set(ls.revoked);
        m.counter("whisk.lease.fallbacks").set(counters_.lease_fallback);
        m.gauge("whisk.lease.active")
            .set(static_cast<double>(leases_->lease_count()));
      }
      if (scheduler_) {
        const auto& s = scheduler_->stats();
        m.counter("whisk.sched.decisions").set(s.decisions);
        m.counter("whisk.sched.cold_routed").set(s.cold_routed);
        m.counter("whisk.sched.short_class").set(s.short_class);
        m.counter("whisk.sched.affinity_kept").set(s.affinity_kept);
        m.counter("whisk.sched.affinity_escaped").set(s.affinity_escaped);
        m.counter("whisk.sched.prior_hits")
            .set(scheduler_->estimator().stats().prior_hits);
        m.gauge("whisk.sched.expected_backlog_ticks")
            .set(static_cast<double>(scheduler_->ledger().total()));
        m.gauge("whisk.sched.tracked_functions")
            .set(static_cast<double>(
                scheduler_->estimator().tracked_functions()));
      }
    });
  }
}

Controller::Controller(sim::Simulation& simulation, mq::Broker& broker,
                       const FunctionRegistry& registry)
    : Controller{simulation, broker, registry, Config{}} {}

std::string Controller::invoker_topic_name(InvokerId id) {
  return "invoker-" + std::to_string(id);
}

SubmitResult Controller::submit(const std::string& function) {
  const FunctionSpec& spec = registry_.at(function);
  ++counters_.submitted;

  ActivationRecord rec;
  rec.id = records_.size();
  rec.function = function;
  rec.submit_time = sim_.now();

  const std::vector<InvokerId>& healthy = healthy_view();
  if (healthy.empty()) {
    // Immediate 503 — recorded so benches can rebuild the rejection
    // series of Figs. 5b/6b.
    rec.state = ActivationState::kRejected503;
    rec.end_time = sim_.now();
    records_.push_back(rec);
    ++counters_.rejected_503;
    last_503_ = sim_.now();
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "reject_503",
          obs::Track::kController, 0, rec.id, sim_.now());
    }
    return SubmitResult{false, rec.id};
  }

  records_.push_back(rec);
  ++counters_.accepted;

  if (leases_) {
    leases_->observe_arrival(function, sim_.now());
    if (const lease::Lease* l = leases_->find(function, sim_.now())) {
      const InvokerId worker = l->worker;
      const bool usable = worker < invokers_.size() &&
                          invokers_[worker].health == InvokerHealth::kHealthy &&
                          worker < direct_.size() && direct_[worker].invoke;
      if (!usable) {
        // The leased worker is gone (or never exposed a seam): the lease
        // is stale, not merely busy — revoke it and route normally.
        leases_->revoke(function);
        ++counters_.lease_fallback;
      } else if (!direct_[worker].ready(spec)) {
        // Worker alive but saturated: keep the lease (the burst will
        // pass) and pay the queue path for this call only.
        ++counters_.lease_fallback;
      } else {
        return submit_leased(function, spec, *l, direct_[worker]);
      }
    }
  }

  const InvokerId target = route(function, healthy);
  records_.back().routed_to = target;
  ++invokers_[target].in_flight;
  ++total_in_flight_;
  if (scheduler_ && pending_decision_)
    scheduler_->on_routed(rec.id, *pending_decision_);
  HW_OBS_IF(config_.obs) {
    // The root of the activation's causal chain: everything later
    // (pulls, execs, reroutes, the terminal event) parents back here.
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kAsyncBegin, "activation",
        obs::Track::kController, 0, rec.id, sim_.now(),
        static_cast<double>(target));
    if (pending_decision_) {
      // Data-driven route: keep the full "why" (chosen vs runner-up,
      // backlog charge, warm/cold expectation) alongside a compact trace
      // instant in the activation's chain. Observation only — the
      // decision was already made above.
      const sched::CallScheduler::Decision& d = *pending_decision_;
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "route_decision",
          obs::Track::kController, 0, rec.id, sim_.now(),
          static_cast<double>(d.worker),
          d.runner_up == sched::CallScheduler::Decision::kNoRunnerUp
              ? -1.0
              : static_cast<double>(d.runner_up));
      obs::RouteDecision why;
      why.call = rec.id;
      why.at = sim_.now();
      why.policy = to_string(config_.route_mode);
      why.function = function;
      why.chosen = d.worker;
      why.runner_up = d.runner_up;  // sentinels match (~0u)
      why.candidates = d.candidates;
      why.predicted_ticks = d.predicted_ticks;
      // Expected completion (comparable with the runner-up's cost).
      why.chosen_cost_ticks = d.backlog_ticks + d.cost_ticks;
      why.runner_up_cost_ticks = d.runner_up_cost_ticks;
      why.backlog_ticks = d.backlog_ticks;
      why.expected_cold = d.expected_cold;
      why.short_class = d.short_class;
      config_.obs->decisions.record(std::move(why));
    }
  }

  mq::Message msg;
  msg.id = rec.id;
  msg.key = function;
  // Handle cached at registration: no string build, no hash, no broker
  // lock on the per-submit path.
  mq::Topic& topic = *invokers_[target].topic;
  if (pending_decision_ && pending_decision_->short_class) {
    // Deadline class: a predicted-short call jumps the queue at publish
    // time (it never preempts an execution already underway).
    topic.publish_front(msg, sim_.now());
  } else {
    topic.publish(msg, sim_.now());
  }
  pending_decision_.reset();

  // A hot function earns a lease on the invoker it just routed to, so
  // its next call skips the queue entirely.
  if (leases_ && leases_->tier(function) == lease::Tier::kHot &&
      leases_->acquire(function, target, sim_.now()) != nullptr) {
    ++counters_.lease_granted;
  }

  arm_timeout(spec, rec.id);
  return SubmitResult{true, rec.id};
}

SubmitResult Controller::submit_leased(const std::string& function,
                                       const FunctionSpec& spec,
                                       const lease::Lease& l,
                                       const DirectSeam& seam) {
  ActivationRecord& rec = records_.back();
  const ActivationId act_id = rec.id;
  const InvokerId target = l.worker;
  rec.routed_to = target;
  ++invokers_[target].in_flight;
  ++total_in_flight_;
  if (scheduler_) {
    // Charge the leased worker's ledger exactly as a routed call would
    // be, so the conservation audit and backlog predictions stay honest.
    lease_candidate_.assign(1, target);
    const sched::CallScheduler::Decision d =
        scheduler_->route_least_expected_work(function, lease_candidate_);
    scheduler_->on_routed(act_id, d);
  }
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kAsyncBegin, "activation",
        obs::Track::kController, 0, act_id, sim_.now(),
        static_cast<double>(target));
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kInstant, "lease_direct",
        obs::Track::kController, 0, act_id, sim_.now(),
        static_cast<double>(target), static_cast<double>(l.id));
    obs::RouteDecision why;
    why.call = act_id;
    why.at = sim_.now();
    why.policy = "lease";
    why.function = function;
    why.chosen = target;
    why.candidates = 1;
    config_.obs->decisions.record(std::move(why));
  }
  mq::Message msg;
  msg.id = act_id;
  msg.key = function;
  leases_->on_hit(function, sim_.now());
  ++counters_.lease_hits;
  seam.invoke(std::move(msg));
  arm_timeout(spec, act_id);
  return SubmitResult{true, act_id};
}

void Controller::arm_timeout(const FunctionSpec& spec, ActivationId act_id) {
  timeout_events_[act_id] =
      sim_.after(spec.timeout, [this, act_id] {
        timeout_events_.erase(act_id);
        ActivationRecord& r = record(act_id);
        if (!is_terminal(r.state)) {
          ++counters_.timed_out;
          finish(r, ActivationState::kTimedOut);
        }
      });
}

InvokerId Controller::route(const std::string& function,
                            const std::vector<InvokerId>& healthy) {
  const std::size_t n = healthy.size();
  const std::uint64_t hash = function_hash(function);
  switch (config_.route_mode) {
    case RouteMode::kHashOnly:
      return healthy[hash % n];
    case RouteMode::kRoundRobin:
      return healthy[round_robin_next_++ % n];
    case RouteMode::kLeastLoaded: {
      InvokerId best = healthy.front();
      for (const InvokerId id : healthy) {
        if (invokers_[id].in_flight < invokers_[best].in_flight) best = id;
      }
      return best;
    }
    case RouteMode::kLeastExpectedWork:
      pending_decision_ = scheduler_->route_least_expected_work(function,
                                                                healthy);
      return pending_decision_->worker;
    case RouteMode::kSjfAffinity:
      pending_decision_ =
          scheduler_->route_sjf_affinity(function, healthy, hash % n);
      return pending_decision_->worker;
    case RouteMode::kHashProbing:
      break;
  }
  // OpenWhisk's sharding balancer: start at the hashed home invoker and
  // step with a hash-derived stride (odd => co-prime with powers of two,
  // and cycling covers all n because we iterate at most n probes) while
  // the current candidate is out of slots. Falls back to the least
  // loaded if every invoker is saturated.
  const std::size_t home = hash % n;
  const std::size_t stride = (hash >> 32 | 1) % std::max<std::size_t>(1, n);
  std::size_t idx = home;
  for (std::size_t probe = 0; probe < n; ++probe) {
    const InvokerId candidate = healthy[idx];
    if (invokers_[candidate].in_flight < config_.invoker_slots)
      return candidate;
    idx = (idx + std::max<std::size_t>(1, stride)) % n;
  }
  InvokerId best = healthy.front();
  for (const InvokerId id : healthy) {
    if (invokers_[id].in_flight < invokers_[best].in_flight) best = id;
  }
  return best;
}

std::uint32_t Controller::in_flight(InvokerId id) const {
  return id < invokers_.size() ? invokers_[id].in_flight : 0;
}

std::size_t Controller::queued_messages() const {
  std::size_t n = broker_.fast_lane().size();
  for (const InvokerId id : members_) n += invokers_[id].topic->size();
  return n;
}

const ActivationRecord& Controller::activation(ActivationId id) const {
  if (id >= records_.size())
    throw std::out_of_range("Controller::activation: unknown id");
  return records_[id];
}

InvokerId Controller::register_invoker() {
  const InvokerId id = next_invoker_id_++;
  InvokerEntry entry;
  entry.last_heartbeat = sim_.now();
  // Resolve the topic once; every later publish to this invoker goes
  // through the cached handle (and the topic exists before any routing
  // decision targets it).
  entry.topic = broker_.resolve(invoker_topic_name(id)).get();
  invokers_.push_back(entry);
  // Ids only grow, so appending keeps both sets ascending.
  healthy_.push_back(id);
  members_.push_back(id);
  ++health_counts_[static_cast<std::size_t>(InvokerHealth::kHealthy)];
  return id;
}

void Controller::set_direct_invoke(InvokerId id, DirectSeam seam) {
  if (id >= direct_.size()) direct_.resize(id + 1);
  direct_[id] = std::move(seam);
}

void Controller::clear_direct_invoke(InvokerId id) {
  if (id < direct_.size()) direct_[id] = DirectSeam{};
}

void Controller::revoke_leases_on(InvokerId id) {
  clear_direct_invoke(id);
  if (leases_) leases_->revoke_worker(id);
}

void Controller::heartbeat(InvokerId id) {
  if (id >= invokers_.size()) return;
  InvokerEntry& entry = invokers_[id];
  entry.last_heartbeat = sim_.now();
  // A previously unresponsive invoker that pings again is readmitted
  // (a stalled invoker pings on thaw).
  if (entry.health == InvokerHealth::kUnresponsive)
    set_health(id, InvokerHealth::kHealthy);
}

void Controller::start_heartbeats(InvokerId id) {
  if (id >= invokers_.size()) return;
  InvokerEntry& entry = invokers_[id];
  if (entry.beating) entry.last_heartbeat = last_beat(entry);
  entry.beat_origin = sim_.now();
  entry.beating = true;
}

void Controller::stop_heartbeats(InvokerId id) {
  if (id >= invokers_.size()) return;
  InvokerEntry& entry = invokers_[id];
  if (!entry.beating) return;
  entry.last_heartbeat = last_beat(entry);
  entry.beating = false;
}

sim::SimTime Controller::last_beat(const InvokerEntry& entry) const {
  if (!entry.beating) return entry.last_heartbeat;
  const sim::SimTime h = config_.heartbeat_interval;
  return std::max(entry.last_heartbeat,
                  sim_.next_grid_firing({entry.beat_origin, h}) - h);
}

void Controller::set_health(InvokerId id, InvokerHealth health) {
  InvokerEntry& entry = invokers_[id];
  const InvokerHealth was = entry.health;
  if (was == health) return;
  entry.health = health;
  --health_counts_[static_cast<std::size_t>(was)];
  ++health_counts_[static_cast<std::size_t>(health)];
  if (was == InvokerHealth::kHealthy) {
    healthy_.erase(std::lower_bound(healthy_.begin(), healthy_.end(), id));
  } else if (health == InvokerHealth::kHealthy) {
    healthy_.insert(std::lower_bound(healthy_.begin(), healthy_.end(), id),
                    id);
  }
  if (health == InvokerHealth::kGone)
    members_.erase(std::lower_bound(members_.begin(), members_.end(), id));
}

void Controller::begin_drain(InvokerId id) {
  if (id >= invokers_.size()) return;
  InvokerEntry& entry = invokers_[id];
  if (entry.health == InvokerHealth::kGone) return;
  set_health(id, InvokerHealth::kDraining);
  // A departing invoker cannot honor its leases; later calls of the
  // leased functions route (and re-lease) elsewhere.
  revoke_leases_on(id);
  move_backlog_to_fast_lane(id);
}

void Controller::deregister(InvokerId id) {
  if (id >= invokers_.size()) return;
  set_health(id, InvokerHealth::kGone);
  revoke_leases_on(id);
  // Any message published between drain and deregistration is rescued.
  move_backlog_to_fast_lane(id);
  // Graceful departure already released charges via the requeue path;
  // forgetting clears the warm set and any straggler charge.
  if (scheduler_) scheduler_->forget_worker(id);
}

std::vector<ActivationId> Controller::move_backlog_to_fast_lane(InvokerId id) {
  auto backlog = invokers_[id].topic->drain();
  std::vector<ActivationId> rescued;
  rescued.reserve(backlog.size());
  for (auto& msg : backlog) {
    rescued.push_back(msg.id);
    requeue_to_fast_lane(std::move(msg));
  }
  return rescued;
}

void Controller::rescue_in_flight(
    InvokerId id, const std::vector<ActivationId>& already_rescued) {
  for (ActivationRecord& rec : records_) {
    if (is_terminal(rec.state)) continue;
    if (rec.routed_to != id) continue;
    // Only work the dead invoker actually held: pulled into its buffer
    // (never started, executed_by unset) or mid-execution there. An
    // activation it interrupted earlier and handed back carries someone
    // else's executed_by — or none but lives in the fast lane already;
    // re-publishing such ids is harmless (at-least-once + deliverable()
    // dedup) but the backlog we just drained must not go out twice.
    if (rec.executed_by != kNoInvoker && rec.executed_by != id) continue;
    if (std::find(already_rescued.begin(), already_rescued.end(), rec.id) !=
        already_rescued.end())
      continue;
    mq::Message msg;
    msg.id = rec.id;
    msg.key = rec.function;
    requeue_to_fast_lane(std::move(msg));
  }
}

void Controller::requeue_to_fast_lane(mq::Message msg) {
  if (msg.id < records_.size()) {
    ActivationRecord& rec = records_[msg.id];
    if (is_terminal(rec.state)) return;  // e.g. already timed out: drop
    ++rec.requeues;
    // The call no longer waits on the worker it was charged to; it
    // re-charges wherever it next starts executing.
    if (scheduler_) scheduler_->on_requeued(rec.id);
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record_chained(
          obs::Cat::kActivation, obs::Phase::kInstant, "fast_lane_reroute",
          obs::Track::kController, 0, rec.id, sim_.now(),
          static_cast<double>(rec.requeues));
    }
  }
  ++counters_.requeued;
  broker_.fast_lane().publish(std::move(msg), sim_.now());
}

void Controller::activation_started(ActivationId id, InvokerId by,
                                    bool cold_start) {
  ActivationRecord& rec = record(id);
  if (is_terminal(rec.state)) return;
  rec.state = ActivationState::kRunning;
  if (rec.first_start_time == sim::SimTime::zero()) {
    rec.first_start_time = sim_.now();
    HW_OBS_IF(config_.obs) {
      h_queue_wait_->observe(static_cast<double>(rec.queue_wait().ticks()));
    }
  }
  rec.start_time = sim_.now();
  rec.executed_by = by;
  rec.cold_start = cold_start;
  if (scheduler_) scheduler_->on_started(rec.id, by, rec.function);
}

void Controller::activation_completed(ActivationId id) {
  ActivationRecord& rec = record(id);
  if (is_terminal(rec.state)) return;
  ++counters_.completed;
  finish(rec, ActivationState::kCompleted);
}

void Controller::activation_failed(ActivationId id) {
  ActivationRecord& rec = record(id);
  if (is_terminal(rec.state)) return;
  ++counters_.failed;
  finish(rec, ActivationState::kFailed);
}

void Controller::activation_interrupted(ActivationId id) {
  ActivationRecord& rec = record(id);
  if (is_terminal(rec.state)) return;
  rec.state = ActivationState::kQueued;
  ++rec.interruptions;
  ++counters_.interrupted;
}

bool Controller::deliverable(ActivationId id) const {
  if (id >= records_.size()) return false;
  return !is_terminal(records_[id].state);
}

InvokerHealth Controller::invoker_health(InvokerId id) const {
  if (id >= invokers_.size())
    throw std::out_of_range("Controller::invoker_health: unknown id");
  return invokers_[id].health;
}

std::vector<InvokerId> Controller::healthy_invokers() const {
  return healthy_;
}

ActivationRecord& Controller::record(ActivationId id) {
  if (id >= records_.size())
    throw std::out_of_range("Controller::record: unknown id");
  return records_[id];
}

void Controller::on_completion(ActivationId id, CompletionCallback cb) {
  const ActivationRecord& rec = activation(id);
  if (is_terminal(rec.state)) {
    cb(rec);
    return;
  }
  completion_callbacks_[id].push_back(std::move(cb));
}

void Controller::finish(ActivationRecord& rec, ActivationState state) {
  rec.state = state;
  rec.end_time = sim_.now();
  if (scheduler_) {
    // Only a completed execution yields a duration sample (end - last
    // start, the same window the paper's activation log measures); other
    // terminal states just release the charge.
    const bool executed = state == ActivationState::kCompleted &&
                          rec.start_time != sim::SimTime::zero();
    const std::int64_t actual =
        executed ? (rec.end_time - rec.start_time).ticks() : -1;
    // executed_by doubles as the estimator's kAnyWorker sentinel (~0u)
    // when the call never started anywhere.
    const sched::CallScheduler::Outcome outcome = scheduler_->on_finished(
        rec.id, rec.function, actual, rec.cold_start, rec.executed_by);
    if (outcome.observed) {
      HW_OBS_IF(config_.obs) {
        h_pred_error_->observe(static_cast<double>(outcome.abs_error_ticks));
      }
    }
  }
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kActivation, obs::Phase::kAsyncEnd, "activation",
        obs::Track::kController, 0, rec.id, sim_.now(),
        static_cast<double>(static_cast<int>(state)),
        static_cast<double>(rec.requeues));
    h_response_->observe(static_cast<double>(rec.response_time().ticks()));
  }
  if (rec.routed_to != kNoInvoker && rec.routed_to < invokers_.size() &&
      invokers_[rec.routed_to].in_flight > 0) {
    --invokers_[rec.routed_to].in_flight;
    --total_in_flight_;
  }
  const auto evt = timeout_events_.find(rec.id);
  if (evt != timeout_events_.end()) {
    sim_.cancel(evt->second);
    timeout_events_.erase(evt);
  }

  // Action sequence: chain the next function on success.
  if (state == ActivationState::kCompleted) {
    const FunctionSpec* spec = registry_.find(rec.function);
    if (spec != nullptr && !spec->next.empty()) {
      ++counters_.sequence_invocations;
      // Defer to a fresh event: finish() may be running deep inside an
      // invoker's completion chain and submit() re-enters routing state.
      const std::string next = spec->next;
      const ActivationId origin = rec.id;
      sim_.at(sim_.now(), [this, next, origin] {
        const auto result = submit(next);
        // Chain completion visibility: the origin's callbacks see the
        // final record; additionally propagate chained-run callbacks.
        (void)origin;
        (void)result;
      });
    }
  }

  if (terminal_observer_) terminal_observer_(rec);

  // Completion callbacks fire after all bookkeeping.
  const auto cbs = completion_callbacks_.find(rec.id);
  if (cbs != completion_callbacks_.end()) {
    auto list = std::move(cbs->second);
    completion_callbacks_.erase(cbs);
    for (auto& cb : list) cb(rec);
  }
}

void Controller::watchdog_sweep() {
  const sim::SimTime deadline =
      config_.heartbeat_interval * config_.heartbeat_miss_limit;
  // Only a healthy invoker whose heartbeat series stopped can go silent
  // (a live series' last beat is at most one interval old). Collect
  // first: the rescue below edits healthy_, and it never touches another
  // invoker's beats, so detecting all before rescuing any changes nothing.
  std::vector<InvokerId> silent;
  for (const InvokerId id : healthy_) {
    const InvokerEntry& entry = invokers_[id];
    if (!entry.beating && sim_.now() - entry.last_heartbeat > deadline)
      silent.push_back(id);
  }
  for (const InvokerId id : silent) {
    set_health(id, InvokerHealth::kUnresponsive);
    ++counters_.unresponsive_detected;
    HW_OBS_IF(config_.obs) {
      config_.obs->trace.record(
          obs::Cat::kPilot, obs::Phase::kInstant, "invoker_unresponsive",
          obs::Track::kController, 0, id, sim_.now());
    }
    // The invoker vanished without hand-off (hard kill / node failure):
    // rescue its unpulled backlog, then re-submit what it had already
    // pulled or was executing — that work would otherwise surface only
    // as client timeouts. Its predicted backlog (and warm set) must not
    // survive it, or the router would keep avoiding a ghost.
    if (scheduler_) scheduler_->forget_worker(id);
    revoke_leases_on(id);
    const std::vector<ActivationId> rescued = move_backlog_to_fast_lane(id);
    rescue_in_flight(id, rescued);
  }
}

}  // namespace hpcwhisk::whisk
