#include "hpcwhisk/slurm/slurmctld.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "hpcwhisk/obs/observability.hpp"

namespace hpcwhisk::slurm {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending: return "PENDING";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCompleting: return "COMPLETING";
    case JobState::kCompleted: return "COMPLETED";
    case JobState::kTimedOut: return "TIMEOUT";
    case JobState::kPreempted: return "PREEMPTED";
    case JobState::kCancelled: return "CANCELLED";
    case JobState::kNodeFailed: return "NODE_FAIL";
  }
  return "?";
}

const char* to_string(EndReason r) {
  switch (r) {
    case EndReason::kCompleted: return "completed";
    case EndReason::kTimeLimit: return "time-limit";
    case EndReason::kPreempted: return "preempted";
    case EndReason::kCancelled: return "cancelled";
    case EndReason::kNodeFailed: return "node-failed";
  }
  return "?";
}

const char* to_string(JobEventKind k) {
  switch (k) {
    case JobEventKind::kSubmitted: return "submitted";
    case JobEventKind::kClaimed: return "claimed";
    case JobEventKind::kLaunched: return "launched";
    case JobEventKind::kSigterm: return "sigterm";
    case JobEventKind::kEnded: return "ended";
  }
  return "?";
}

const char* to_string(ObservedNodeState s) {
  switch (s) {
    case ObservedNodeState::kIdle: return "idle";
    case ObservedNodeState::kHpc: return "hpc";
    case ObservedNodeState::kPilot: return "pilot";
    case ObservedNodeState::kDown: return "down";
  }
  return "?";
}

namespace {
sim::SimTime floor_to_slot(sim::SimTime t, sim::SimTime slot) {
  if (slot <= sim::SimTime::zero()) return t;
  return slot * (t / slot);
}

/// Legacy (whole-node) capacity: one indivisible unit per node, which
/// every job requests in full — exclusive allocation as the
/// full-capacity case of TRES packing.
constexpr TresVector kWholeNode{1, 0, 0};

/// Eviction order within a node: lowest tier first, youngest first
/// within a tier (the least accumulated work is lost).
bool evicts_before(const JobRecord* a, const JobRecord* b) {
  if (a->preempt_tier != b->preempt_tier)
    return a->preempt_tier < b->preempt_tier;
  if (a->start_time != b->start_time) return a->start_time > b->start_time;
  return a->id > b->id;
}

/// Merges the sorted runs [0, head) and [head, end) of `v` in place,
/// through the vector's spare capacity rather than a temporary buffer.
template <typename T, typename Less>
void merge_tail(std::vector<T>& v, std::size_t head, Less less) {
  const std::size_t tail = v.size() - head;
  if (head == 0 || tail == 0 || !less(v[head], v[head - 1])) return;
  v.resize(head + 2 * tail);
  std::move_backward(v.begin() + static_cast<std::ptrdiff_t>(head),
                     v.begin() + static_cast<std::ptrdiff_t>(head + tail),
                     v.end());
  // Backwards: the larger of the two runs' last elements goes last.
  std::size_t i = head;       // unmerged head is [0, i)
  std::size_t j = v.size();   // unmerged tail is [head + tail, j)
  std::size_t out = head + tail;
  while (j > head + tail) {
    if (i > 0 && less(v[j - 1], v[i - 1])) {
      v[--out] = v[--i];
    } else {
      v[--out] = v[--j];
    }
  }
  v.resize(head + tail);
}
}  // namespace

Slurmctld::Slurmctld(sim::Simulation& simulation, Config config,
                     std::vector<Partition> partitions)
    : sim_{simulation}, config_{config} {
  if (config_.node_count == 0)
    throw std::invalid_argument("Slurmctld: node_count must be positive");
  for (auto& p : partitions) {
    const std::string name = p.name;
    if (!partitions_.emplace(name, std::move(p)).second)
      throw std::invalid_argument("Slurmctld: duplicate partition " + name);
  }
  nodes_.resize(config_.node_count);
  for (std::uint32_t i = 0; i < config_.node_count; ++i) nodes_[i].id = i;
  last_freed_.assign(config_.node_count, sim::SimTime::zero());
  draining_.assign(config_.node_count, false);
  last_pass_reserved_from_.assign(config_.node_count, sim::SimTime::max());

  // Fidelity extensions (ROADMAP item 4); everything below is inert with
  // the default-constructed Fidelity block.
  tres_on_ = config_.fidelity.tres_mode;
  if (tres_on_ && config_.fidelity.node_capacity.is_zero())
    throw std::invalid_argument(
        "Slurmctld: tres_mode requires a non-zero node_capacity");
  const TresVector capacity =
      tres_on_ ? config_.fidelity.node_capacity : kWholeNode;
  for (Node& node : nodes_) node.capacity = capacity;
  for (const Qos& q : config_.fidelity.qos) {
    if (q.name.empty())
      throw std::invalid_argument("Slurmctld: QOS with empty name");
    if (!qos_.emplace(q.name, q).second)
      throw std::invalid_argument("Slurmctld: duplicate QOS " + q.name);
  }
  qos_on_ = !qos_.empty();
  for (const Reservation& r : config_.fidelity.reservations) add_reservation(r);

  sim_.every(config_.sched_interval, [this] { run_sched_pass(true); });
  HW_OBS_IF(config_.obs) {
    config_.obs->metrics.add_collector([this](obs::MetricsRegistry& m) {
      m.counter("slurm.jobs.submitted").set(counters_.submitted);
      m.counter("slurm.jobs.started").set(counters_.started);
      m.counter("slurm.jobs.completed").set(counters_.completed);
      m.counter("slurm.jobs.timed_out").set(counters_.timed_out);
      m.counter("slurm.jobs.preempted").set(counters_.preempted);
      m.counter("slurm.jobs.cancelled").set(counters_.cancelled);
      m.counter("slurm.node_failures").set(counters_.node_failures);
      m.counter("slurm.sched_passes").set(counters_.sched_passes);
      m.gauge("slurm.nodes.idle").set(static_cast<double>(idle_node_count()));
      m.gauge("slurm.jobs.running").set(static_cast<double>(running_count()));
    });
  }
}

void Slurmctld::enqueue_pending(std::int32_t tier, const JobRecord& rec) {
  auto& q = pending_[tier];
  // effective_priority == spec.priority when QOS and fair-share are off,
  // so legacy queue orderings (and golden decision logs) are unchanged.
  const QueueEntry entry{rec.effective_priority, rec.id};
  q.insert(std::upper_bound(q.begin(), q.end(), entry), entry);
}

void Slurmctld::remove_pending(std::int32_t tier, JobId id) {
  auto& q = pending_[tier];
  q.erase(std::remove_if(q.begin(), q.end(),
                         [id](const QueueEntry& e) { return e.id == id; }),
          q.end());
}

JobId Slurmctld::submit(JobSpec spec) {
  const auto pit = partitions_.find(spec.partition);
  if (pit == partitions_.end())
    throw std::invalid_argument("Slurmctld::submit: unknown partition '" +
                                spec.partition + "'");
  const Partition& part = pit->second;
  if (spec.num_nodes == 0 || spec.num_nodes > nodes_.size())
    throw std::invalid_argument("Slurmctld::submit: bad node count");
  if (spec.time_limit <= sim::SimTime::zero())
    throw std::invalid_argument("Slurmctld::submit: non-positive time limit");
  if (part.max_time > sim::SimTime::zero() && spec.time_limit > part.max_time)
    throw std::invalid_argument("Slurmctld::submit: limit exceeds partition max");
  if (spec.time_min > spec.time_limit)
    throw std::invalid_argument("Slurmctld::submit: time_min > time_limit");
  // Whole-node requests (all-zero, and every request in legacy mode)
  // take the node's full capacity.
  const TresVector& capacity = nodes_.front().capacity;
  if (!tres_on_ || spec.tres_per_node.is_zero()) {
    spec.tres_per_node = capacity;
  } else if (!spec.tres_per_node.fits_within(capacity)) {
    throw std::invalid_argument(
        "Slurmctld::submit: TRES request exceeds node capacity");
  }
  const Qos* qos = find_qos(spec.qos);
  if (!spec.qos.empty() && qos_on_ && qos == nullptr)
    throw std::invalid_argument("Slurmctld::submit: unknown QOS '" + spec.qos +
                                "'");

  JobRecord rec;
  rec.id = next_job_id_++;
  rec.priority_tier = part.priority_tier;
  rec.preemptible = part.preempt_mode == PreemptMode::kCancel;
  rec.submit_time = sim_.now();
  rec.spec = std::move(spec);
  rec.preempt_tier = qos ? qos->preempt_tier : part.priority_tier;
  rec.effective_priority = rec.spec.priority + (qos ? qos->priority_weight : 0);
  if (config_.fidelity.fair_share.enabled) {
    const std::string& account =
        rec.spec.account.empty() ? rec.spec.partition : rec.spec.account;
    rec.effective_priority -= debit_for_usage(decayed_usage(account));
  }
  const JobId id = rec.id;
  const bool is_var = rec.spec.time_min > sim::SimTime::zero();
  const std::int32_t tier = rec.priority_tier;
  const auto [it, inserted] = jobs_.emplace(id, std::move(rec));
  enqueue_pending(tier, it->second);
  ++counters_.submitted;
  notify_job(JobEventKind::kSubmitted, it->second);
  // Variable-length pilots wait for the periodic pass when configured so.
  if (!(is_var && config_.var_jobs_periodic_only && tier == 0)) {
    request_schedule();
  }
  return id;
}

bool Slurmctld::cancel(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobRecord& rec = it->second;
  switch (rec.state) {
    case JobState::kPending:
      remove_pending(rec.priority_tier, id);
      finish_job(rec, EndReason::kCancelled);
      return true;
    case JobState::kRunning:
      begin_grace(rec, EndReason::kTimeLimit);
      return true;
    case JobState::kCompleting:
      return true;  // already on its way out
    default:
      return false;
  }
}

void Slurmctld::job_exited(JobId id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  JobRecord& rec = it->second;
  if (!rec.is_active()) return;
  finish_job(rec, rec.state == JobState::kCompleting
                      ? rec.grace_reason  // exited during grace
                      : EndReason::kCompleted);
}

void Slurmctld::set_node_down(NodeId id) {
  Node& node = nodes_.at(id);
  if (node.state == NodeState::kDown) return;
  // A claimant waiting on this node can no longer be satisfied here;
  // requeue it before the node's jobs collapse, so that no victim ending
  // below completes a claim onto the dying node.
  requeue_claimant(id);
  if (node.state == NodeState::kAllocated) {
    ++counters_.node_failures;
    const std::vector<JobRecord*> doomed = node.running_jobs;
    for (JobRecord* rec : doomed) {
      if (rec->is_active()) finish_job(*rec, EndReason::kNodeFailed);
    }
  }
  node.state = NodeState::kDown;
  node.allocated = TresVector{};
  node.running_jobs.clear();
  touch(id);
  announce(id);
  request_schedule();
}

void Slurmctld::fail_node(NodeId id, sim::SimTime grace) {
  Node& node = nodes_.at(id);
  if (node.state == NodeState::kDown) return;
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(obs::Cat::kFault, obs::Phase::kInstant,
                              "node_fail", obs::Track::kSlurmctld, 0, id,
                              sim_.now(), grace.to_seconds());
  }
  if (grace <= sim::SimTime::zero() || node.state != NodeState::kAllocated) {
    set_node_down(id);
    return;
  }
  ++counters_.node_failures;
  // Like a maintenance drain, the node leaves service once its jobs are
  // gone — but here they are being killed on a truncated clock.
  draining_[id] = true;
  touch(id);
  const std::vector<JobRecord*> doomed = node.running_jobs;
  for (JobRecord* rec : doomed) {
    if (rec->state == JobState::kRunning)
      begin_grace(*rec, EndReason::kNodeFailed, grace);
    // kCompleting: a grace window is already running with an earlier-or-
    // equal partition deadline; the node goes down when the job leaves.
  }
}

void Slurmctld::set_node_up(NodeId id) {
  Node& node = nodes_.at(id);
  draining_[id] = false;
  touch(id);
  if (node.state != NodeState::kDown) return;
  node.state = NodeState::kIdle;
  announce(id);
  request_schedule();
}

void Slurmctld::drain_node(NodeId id) {
  Node& node = nodes_.at(id);
  if (node.state == NodeState::kDown) return;
  draining_[id] = true;
  touch(id);
  if (node.state == NodeState::kIdle) {
    node.state = NodeState::kDown;
    announce(id);
  }
  // Allocated: the running job finishes normally; free_nodes handles the
  // hand-over to maintenance.
}

bool Slurmctld::is_draining(NodeId id) const { return draining_.at(id); }

const JobRecord& Slurmctld::job(JobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("Slurmctld::job: unknown id");
  return it->second;
}

bool Slurmctld::is_known(JobId id) const { return jobs_.contains(id); }

void Slurmctld::for_each_job(
    const std::function<void(const JobRecord&)>& fn) const {
  // jobs_ is unordered; visit in id order for stable output.
  std::vector<JobId> ids;
  ids.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const JobId id : ids) fn(jobs_.at(id));
}

std::size_t Slurmctld::pending_count(const std::string& partition) const {
  std::size_t n = 0;
  for (const auto& [tier, q] : pending_) {
    for (const QueueEntry& e : q) {
      if (jobs_.at(e.id).spec.partition == partition) ++n;
    }
  }
  return n;
}

std::size_t Slurmctld::running_count() const {
  std::size_t n = 0;
  for (const auto& [id, rec] : jobs_) {
    if (rec.is_active()) ++n;
  }
  return n;
}

ObservedNodeState Slurmctld::observed_state(NodeId id) const {
  const Node& node = nodes_.at(id);
  switch (node.state) {
    case NodeState::kDown:
      return ObservedNodeState::kDown;
    case NodeState::kIdle:
      return ObservedNodeState::kIdle;
    case NodeState::kAllocated:
      // Prime HPC work dominates the observed role: the paper's sinfo
      // perspective reports a shared node as busy with HPC.
      for (const JobRecord* rec : node.running_jobs) {
        if (rec->priority_tier != 0) return ObservedNodeState::kHpc;
      }
      return ObservedNodeState::kPilot;
  }
  return ObservedNodeState::kIdle;
}

std::vector<ObservedNodeState> Slurmctld::observed_states() const {
  std::vector<ObservedNodeState> out(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    out[i] = observed_state(static_cast<NodeId>(i));
  return out;
}

std::size_t Slurmctld::idle_node_count() const {
  std::size_t n = 0;
  for (const Node& node : nodes_)
    if (node.state == NodeState::kIdle) ++n;
  return n;
}

std::size_t Slurmctld::available_node_count() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    const ObservedNodeState seen = observed_state(node.id);
    if (seen == ObservedNodeState::kIdle || seen == ObservedNodeState::kPilot)
      ++n;
  }
  return n;
}

Slurmctld::StateTotals Slurmctld::state_totals() const {
  StateTotals t;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    switch (observed_state(static_cast<NodeId>(i))) {
      case ObservedNodeState::kIdle: ++t.idle; break;
      case ObservedNodeState::kHpc: ++t.hpc; break;
      case ObservedNodeState::kPilot: ++t.pilot; break;
      case ObservedNodeState::kDown: ++t.down; break;
    }
  }
  return t;
}

void Slurmctld::schedule_now() { run_sched_pass(false); }

void Slurmctld::request_schedule() {
  if (pass_requested_) return;
  pass_requested_ = true;
  const sim::SimTime at =
      std::max(sim_.now(), last_pass_ + config_.min_pass_gap);
  sim_.at(at, [this] {
    pass_requested_ = false;
    run_sched_pass(false);
  });
}

const Partition& Slurmctld::partition_of(const JobRecord& rec) const {
  return partitions_.at(rec.spec.partition);
}

sim::SimTime Slurmctld::release_for(std::int32_t tier,
                                    const Node& node) const {
  if (node.state == NodeState::kDown) return sim::SimTime::max();
  // Free when the last resident `tier` cannot preempt is expected out;
  // preemptable residents are transparent.
  sim::SimTime release = sim::SimTime::zero();
  for (const JobRecord* rec : node.running_jobs) {
    if (rec->preemptible && rec->preempt_tier < tier) continue;
    sim::SimTime expected = rec->expected_end();
    if (rec->state == JobState::kCompleting)
      expected = std::min(expected, rec->end_time);
    release = std::max(release, expected);
  }
  return release;
}

Slurmctld::Availability Slurmctld::availability_snapshot(
    std::int32_t tier) const {
  const sim::SimTime now = sim_.now();
  const auto it =
      std::find_if(timelines_.begin(), timelines_.end(),
                   [tier](const auto& t) { return t.first == tier; });
  const PlanningTimeline* timeline =
      it == timelines_.end() ? nullptr : &it->second;
  Availability a;
  a.free_at.resize(nodes_.size());
  for (const Node& node : nodes_) {
    const bool indexed =
        timeline != nullptr && (node.stale & kStaleTimelines) == 0;
    a.free_at[node.id] = std::max(
        now, indexed ? timeline->release(node.id) : release_for(tier, node));
  }
  for (const auto& [n, claimant] : node_claims_)
    a.free_at[n] = std::max(a.free_at[n], claim_end(claimant));
  return a;
}

sim::SimTime Slurmctld::claim_end(JobId claimant) const {
  const JobRecord& rec = jobs_.at(claimant);
  return sim_.now() + rec.granted_limit + partition_of(rec).grace_time;
}

bool Slurmctld::fits_better(NodeId a, NodeId b) const {
  const std::uint32_t fa = nodes_[a].capacity.cpus - nodes_[a].allocated.cpus;
  const std::uint32_t fb = nodes_[b].capacity.cpus - nodes_[b].allocated.cpus;
  if (fa != fb) return fa < fb;
  if (last_freed_[a] != last_freed_[b]) return last_freed_[a] > last_freed_[b];
  return a < b;
}

void Slurmctld::touch(NodeId n) {
  if (!index_built_) return;  // the first pass indexes every node
  Node& node = nodes_[n];
  if (node.stale == 0) stale_nodes_.push_back(n);
  node.stale = kStaleCache | kStaleTimelines;
}

void Slurmctld::refresh_timelines() {
  const sim::SimTime now = sim_.now();
  for (const NodeId n : stale_nodes_) {
    Node& node = nodes_[n];
    if ((node.stale & kStaleTimelines) == 0) continue;
    node.stale &= static_cast<std::uint8_t>(~kStaleTimelines);
    for (auto& [tier, timeline] : timelines_)
      timeline.set_release(n, release_for(tier, node), now);
  }
}

void Slurmctld::append_residents(const Node& node) {
  auto& residents = pass_cache_.residents;
  const std::size_t first = residents.size();
  for (const JobRecord* rec : node.running_jobs) {
    if (rec->preemptible && rec->state == JobState::kRunning)
      residents.push_back(rec);
  }
  std::sort(residents.begin() + static_cast<std::ptrdiff_t>(first),
            residents.end(), evicts_before);
}

void Slurmctld::refresh_index() {
  if (!index_built_) {
    index_built_ = true;
    stale_nodes_.resize(nodes_.size());
    for (Node& node : nodes_) {
      stale_nodes_[node.id] = node.id;
      node.stale = kStaleCache;
    }
  }
  refresh_timelines();

  // Strike the stale nodes, then re-enter them at their current rank;
  // every other node's entry and sort key is unchanged since it entered.
  PassCache& cache = pass_cache_;
  const auto stale = [this](NodeId n) { return nodes_[n].stale != 0; };
  std::erase_if(cache.open, stale);
  std::size_t live_residents = 0;
  std::erase_if(cache.preemptable, [&](const PassCache::Preemptable& p) {
    if (stale(p.node)) return true;
    live_residents += p.last - p.first;
    return false;
  });
  const std::size_t open_head = cache.open.size();
  const std::size_t preemptable_head = cache.preemptable.size();
  std::sort(stale_nodes_.begin(), stale_nodes_.end());
  const bool any_claims = !node_claims_.empty();
  for (const NodeId n : stale_nodes_) {
    Node& node = nodes_[n];
    node.stale = 0;
    if (node.state == NodeState::kDown || draining_[n]) continue;
    if (any_claims && node_claims_.contains(n)) continue;
    if (!(node.capacity - node.allocated).is_zero()) cache.open.push_back(n);
    const std::size_t first = cache.residents.size();
    append_residents(node);
    if (cache.residents.size() == first) continue;
    live_residents += cache.residents.size() - first;
    cache.preemptable.push_back({n, first, cache.residents.size()});
  }
  stale_nodes_.clear();
  // Best fit first: partial nodes fill up before idle nodes are broken
  // open, and among equals the most recently freed goes first (LIFO
  // reuse, matching Slurm's stable node-weight ordering and producing
  // the heavy-tailed per-node idleness of Fig. 1b).
  const auto better = [this](NodeId a, NodeId b) { return fits_better(a, b); };
  std::sort(cache.open.begin() + static_cast<std::ptrdiff_t>(open_head),
            cache.open.end(), better);
  merge_tail(cache.open, open_head, better);
  merge_tail(cache.preemptable, preemptable_head,
             [](const PassCache::Preemptable& a,
                const PassCache::Preemptable& b) { return a.node < b.node; });
  if (cache.residents.size() > 2 * live_residents + 64) {
    // Compact: every listed node is current, so re-reading it rebuilds
    // exactly its range.
    cache.residents.clear();
    for (PassCache::Preemptable& p : cache.preemptable) {
      p.first = cache.residents.size();
      append_residents(nodes_[p.node]);
      p.last = cache.residents.size();
    }
  }
  open_scratch_.assign(cache.open.begin(), cache.open.end());
}

PlanningTimeline& Slurmctld::begin_tier(std::int32_t tier) {
  refresh_timelines();
  const sim::SimTime now = sim_.now();
  auto it = std::find_if(timelines_.begin(), timelines_.end(),
                         [tier](const auto& t) { return t.first == tier; });
  if (it == timelines_.end()) {
    PlanningTimeline& fresh =
        timelines_.emplace_back(tier, PlanningTimeline{}).second;
    fresh.resize(nodes_.size());
    for (const Node& node : nodes_)
      fresh.set_release(node.id, release_for(tier, node), now);
    it = timelines_.end() - 1;
  }
  PlanningTimeline& timeline = it->second;
  timeline.begin(now);
  for (const auto& [n, claimant] : node_claims_)
    timeline.occupy(n, claim_end(claimant));
  return timeline;
}

void Slurmctld::build_window_starts(std::vector<sim::SimTime>& out) const {
  out.assign(nodes_.size(), sim::SimTime::max());
  const sim::SimTime now = sim_.now();
  for (const Reservation& r : reservations_) {
    if (r.end <= now) continue;
    const sim::SimTime from = std::max(r.start, now);
    for (const NodeId n : r.nodes) out[n] = std::min(out[n], from);
  }
}

sim::SimTime Slurmctld::hole(sim::SimTime reserved_from, NodeId n,
                             sim::SimTime grace) const {
  const sim::SimTime now = sim_.now();
  sim::SimTime h = reserved_from == sim::SimTime::max()
                       ? sim::SimTime::max()
                       : reserved_from - now;
  // The SIGKILL deadline, not just the limit, must clear a window.
  if (window_from_[n] != sim::SimTime::max())
    h = std::min(h, window_from_[n] - now - grace);
  return h;
}

void Slurmctld::run_sched_pass(bool periodic) {
  ++counters_.sched_passes;
  const std::uint64_t started_before = counters_.started;
  const sim::SimTime now = sim_.now();
  last_pass_ = now;

  // Node lists for this pass: the maintained index brought up to date,
  // and a working copy of the open list, edited in place as launches
  // happen. All pass-local vectors are member scratch: steady-state
  // passes allocate nothing.
  refresh_index();
  std::vector<NodeId>& open = open_scratch_;
  build_window_starts(window_from_);

  // ---- Phase 1: HPC tiers (>= 1), highest first, backfill with up to
  // reservation_depth future reservations. reserved_from[n] = earliest
  // instant from which node n is reserved for a blocked job (max() when
  // unreserved); backfilled jobs must end before it.
  std::vector<sim::SimTime>& reserved_from = reserved_from_scratch_;
  reserved_from.assign(nodes_.size(), sim::SimTime::max());
  std::size_t reservations_made = 0;

  for (auto& [tier, queue] : pending_) {
    if (tier == 0) break;  // pilots handled in phase 2
    if (queue.empty()) continue;

    // Planning view for this tier: when each node is expected free, read
    // from the tier's maintained timeline and advanced as we launch jobs
    // and book reservations within this pass; end() drops the advances.
    PlanningTimeline& timeline = begin_tier(tier);

    std::vector<QueueEntry>& still_pending = still_pending_scratch_;
    still_pending.clear();
    still_pending.reserve(queue.size());
    std::size_t examined = 0;
    for (const QueueEntry& entry : queue) {
      JobRecord& rec = jobs_.at(entry.id);
      if (examined++ >= config_.backfill_depth) {
        still_pending.push_back(entry);
        continue;
      }
      if (try_start(rec, open, reserved_from)) {
        // Reflect the launch (or claim) in the planning timeline.
        const sim::SimTime busy_until =
            now + rec.granted_limit + partition_of(rec).grace_time;
        for (const NodeId n : rec.nodes) timeline.occupy(n, busy_until);
        continue;
      }
      still_pending.push_back(entry);
      if (reservations_made < config_.reservation_depth) {
        // Book a future reservation for this blocked job on the nodes
        // that free earliest in the planning timeline.
        std::vector<NodeId>& booked = chosen_scratch_;
        const std::optional<sim::SimTime> res_start = timeline.reserve(
            rec.spec.num_nodes, now + config_.backfill_window,
            rec.spec.time_limit, booked);
        if (res_start) {
          for (const NodeId n : booked)
            reserved_from[n] = std::min(reserved_from[n], *res_start);
          ++reservations_made;
        }
      }
    }
    timeline.end();
    queue.swap(still_pending);
  }

  // ---- Phase 2: tier-0 pilots pack into whatever TRES is left —
  // including partial nodes already running prime HPC work.
  place_pilots(open, reserved_from, periodic);

  // Remember this pass's reservation picture for stale var sizing.
  if (periodic) last_pass_reserved_from_ = reserved_from;

  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record(
        obs::Cat::kSched, obs::Phase::kInstant, "sched_pass",
        obs::Track::kSlurmctld, 0, counters_.sched_passes, now,
        periodic ? 1.0 : 0.0,
        static_cast<double>(counters_.started - started_before));
  }
}

bool Slurmctld::try_start(JobRecord& rec, std::vector<NodeId>& open,
                          const std::vector<sim::SimTime>& reserved_from) {
  PassCache& cache = pass_cache_;
  const std::uint32_t want_nodes = rec.spec.num_nodes;
  // Cheap reject: not enough candidate nodes even before constraints.
  if (open.size() + cache.preemptable.size() < want_nodes) return false;

  // Variable-length jobs can shrink to time_min, so that is what must fit
  // the hole; fixed jobs need their full declared limit. A node whose
  // hole is too short is off limits (EASY backfill condition).
  const bool is_var = rec.spec.time_min > sim::SimTime::zero();
  const sim::SimTime limit = is_var ? rec.spec.time_min : rec.spec.time_limit;
  const sim::SimTime grace = partition_of(rec).grace_time;
  const TresVector& want = rec.spec.tres_per_node;
  const auto usable = [&](NodeId n) {
    return limit <= hole(reserved_from[n], n, grace);
  };

  // Prefer nodes whose free TRES already fits: no preemption, no
  // grace-period delay.
  std::vector<NodeId>& chosen = chosen_scratch_;
  chosen.clear();
  for (const NodeId n : open) {
    if (chosen.size() == want_nodes) break;
    if (!want.fits_within(node_free(n)) || !usable(n)) continue;
    chosen.push_back(n);
  }

  // Preemption completes the allocation on nodes where evicting strictly-
  // lower-tier running preemptible jobs, in the node's eviction order,
  // frees enough TRES. Nodes go youngest victim first — the least
  // accumulated serving time is lost, and long-lived workers (warm
  // containers, long queues) survive, matching the long-serving invoker
  // tail the paper reports.
  std::vector<VictimNode>& candidates = victim_nodes_scratch_;
  std::vector<const JobRecord*>& pool = victim_pool_scratch_;
  candidates.clear();
  pool.clear();
  if (chosen.size() < want_nodes) {
    for (std::size_t i = 0; i < cache.preemptable.size(); ++i) {
      const PassCache::Preemptable& p = cache.preemptable[i];
      TresVector freeable = node_free(p.node);
      if (want.fits_within(freeable) || !usable(p.node)) continue;
      const std::size_t first = pool.size();
      sim::SimTime youngest = sim::SimTime::zero();
      for (std::size_t k = p.first; k < p.last && !want.fits_within(freeable);
           ++k) {
        const JobRecord* v = cache.residents[k];
        if (v->state != JobState::kRunning ||
            v->preempt_tier >= rec.preempt_tier) {
          continue;
        }
        pool.push_back(v);
        freeable += v->spec.tres_per_node;
        youngest = std::max(youngest, v->start_time);
      }
      if (want.fits_within(freeable)) {
        candidates.push_back({youngest, i, first, pool.size()});
      } else {
        pool.resize(first);
      }
    }
    const std::size_t missing = want_nodes - chosen.size();
    if (candidates.size() < missing) return false;
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<std::ptrdiff_t>(missing),
                      candidates.end(),
                      [](const VictimNode& a, const VictimNode& b) {
                        if (a.youngest != b.youngest)
                          return a.youngest > b.youngest;
                        return a.index < b.index;
                      });
    candidates.resize(missing);
    for (const VictimNode& c : candidates)
      chosen.push_back(cache.preemptable[c.index].node);
  }

  // Variable-length jobs: size to the nearest hole on the chosen nodes.
  sim::SimTime granted = rec.spec.time_limit;
  if (is_var) {
    sim::SimTime horizon = sim::SimTime::max();
    for (const NodeId n : chosen)
      horizon = std::min(horizon, hole(reserved_from[n], n, grace));
    if (horizon != sim::SimTime::max()) {
      granted = std::clamp(floor_to_slot(horizon, config_.slot),
                           rec.spec.time_min, rec.spec.time_limit);
    }
  }

  const auto claimed = [&chosen](NodeId n) {
    return std::find(chosen.begin(), chosen.end(), n) != chosen.end();
  };
  if (candidates.empty()) {
    // Strike the chosen nodes from the pass's list; partially filled
    // ones return at their new rank.
    std::erase_if(open, claimed);
    launch(rec, chosen, granted);
    for (const NodeId n : rec.nodes) {
      if ((nodes_[n].capacity - nodes_[n].allocated).is_zero()) continue;
      open.insert(std::lower_bound(open.begin(), open.end(), n,
                                   [this](NodeId a, NodeId b) {
                                     return fits_better(a, b);
                                   }),
                  n);
    }
    return true;
  }

  // Local (not scratch): victim callbacks below can re-enter the
  // scheduler (a drained pilot may exit synchronously).
  std::vector<JobId> victims;
  for (const VictimNode& c : candidates) {
    for (std::size_t k = c.first; k < c.last; ++k) {
      // A multi-node victim can be credited to several chosen nodes.
      if (std::find(victims.begin(), victims.end(), pool[k]->id) ==
          victims.end()) {
        victims.push_back(pool[k]->id);
      }
    }
  }
  std::erase_if(open, claimed);
  std::erase_if(cache.preemptable, [&claimed](const PassCache::Preemptable& p) {
    return claimed(p.node);
  });

  // Preempt victims and park the job until they are gone.
  PendingLaunch pl;
  pl.id = rec.id;
  pl.nodes = chosen;
  pl.granted_limit = granted;
  pl.victims_missing = victims.size();
  for (const NodeId n : chosen) {
    node_claims_[n] = rec.id;
    touch(n);
  }
  for (const JobId v : victims) victim_claims_.emplace(v, rec.id);
  pending_launches_.push_back(std::move(pl));
  notify_job(JobEventKind::kClaimed, rec);

  for (const JobId v : victims) {
    JobRecord& victim = jobs_.at(v);
    if (victim.state == JobState::kRunning)
      begin_grace(victim, EndReason::kPreempted);
  }
  return true;
}

void Slurmctld::place_pilots(std::vector<NodeId>& open,
                             const std::vector<sim::SimTime>& reserved_from,
                             bool periodic) {
  const auto tier0 = pending_.find(0);
  if (tier0 == pending_.end() || tier0->second.empty()) return;
  auto& queue = tier0->second;

  const sim::SimTime now = sim_.now();
  const std::vector<sim::SimTime>& sizing_view =
      config_.var_jobs_periodic_only ? last_pass_reserved_from_ : reserved_from;
  bool var_allowed = !config_.var_jobs_periodic_only || periodic;
  if (var_allowed && config_.var_jobs_periodic_only &&
      now - last_var_pass_ < config_.var_pass_period) {
    var_allowed = false;
  }
  if (var_allowed && config_.var_jobs_periodic_only) last_var_pass_ = now;

  // For each node, pack the best (highest-priority) queued pilots that
  // fit: under the preempt-aware policy that is simply the head of the
  // queue; under hole-fitting, the first pilot whose declared limit fits
  // before the node's reservation. Pilots take the *coldest* nodes first
  // (the open list backwards): under the LIFO reuse order HPC jobs
  // consume hot nodes, so cold placement keeps pilots out of the line of
  // fire and lengthens their serving lives.
  const auto place_one = [&](NodeId node) {
    const TresVector free = node_free(node);
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      JobRecord& rec = jobs_.at(it->id);
      assert(rec.spec.num_nodes == 1 &&
             "tier-0 pilots are single-node by design");
      const bool is_var = rec.spec.time_min > sim::SimTime::zero();
      if (is_var && !var_allowed) continue;
      if (!rec.spec.tres_per_node.fits_within(free)) continue;
      const sim::SimTime grace = partition_of(rec).grace_time;
      // Every pilot's SIGKILL deadline must clear a maintenance window
      // (variable ones may shrink to time_min to do so).
      const sim::SimTime needed = is_var ? rec.spec.time_min
                                         : rec.spec.time_limit;
      if (needed > hole(sim::SimTime::max(), node, grace)) continue;

      sim::SimTime granted = rec.spec.time_limit;
      if (is_var) {
        // Sized against the (possibly stale) availability picture.
        const sim::SimTime h = hole(sizing_view[node], node, grace);
        if (h != sim::SimTime::max()) {
          granted = std::clamp(floor_to_slot(h, config_.slot),
                               rec.spec.time_min, rec.spec.time_limit);
        }
      } else if (config_.pilot_placement == PilotPlacement::kHoleFitting) {
        const sim::SimTime h = hole(reserved_from[node], node, grace);
        if (h != sim::SimTime::max() && rec.spec.time_limit > h)
          continue;  // does not fit; try a shorter pilot for this node
      }

      queue.erase(it);
      launch(rec, {node}, granted);
      return true;
    }
    return false;
  };
  for (auto it = open.rbegin(); it != open.rend(); ++it) {
    if (queue.empty()) break;
    const NodeId node = *it;
    // The fresh-idle gate only guards fully idle nodes: partial nodes
    // are already pinned down by their HPC resident.
    if (nodes_[node].running_jobs.empty() &&
        now - last_freed_[node] < config_.pilot_min_idle) {
      continue;
    }
    while (!queue.empty() && !node_free(node).is_zero() && place_one(node)) {
    }
  }
}

void Slurmctld::launch(JobRecord& rec, std::vector<NodeId> nodes,
                       sim::SimTime granted_limit) {
  const sim::SimTime now = sim_.now();
  rec.state = JobState::kRunning;
  rec.start_time = now;
  rec.granted_limit = granted_limit;
  rec.nodes = std::move(nodes);
  for (const NodeId n : rec.nodes) {
    Node& node = nodes_.at(n);
    assert(node.state != NodeState::kDown);
    const ObservedNodeState prev = observed_state(n);
    node.allocated += rec.spec.tres_per_node;
    node.running_jobs.push_back(&rec);
    node.state = NodeState::kAllocated;
    touch(n);
    if (observed_state(n) != prev) announce(n);
  }
  ++counters_.started;
  notify_job(JobEventKind::kLaunched, rec);
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kSched, obs::Phase::kInstant, "job_launch",
        obs::Track::kSlurmctld, 0, rec.id, now,
        static_cast<double>(rec.nodes.size()), granted_limit.to_seconds());
  }

  const JobId id = rec.id;
  const sim::SimTime natural =
      rec.spec.actual_runtime == sim::SimTime::max()
          ? sim::SimTime::max()
          : now + rec.spec.actual_runtime;
  const sim::SimTime at_limit = now + granted_limit;
  if (natural <= at_limit) {
    end_events_[id] = sim_.at(natural, [this, id] {
      end_events_.erase(id);
      finish_job(jobs_.at(id), EndReason::kCompleted);
    });
  } else {
    // The job will outlive its granted limit: SIGTERM at the limit,
    // grace, then SIGKILL (Prometheus grants the full grace on timeout
    // too — Sec. III-C: "because of eviction or timeout").
    end_events_[id] = sim_.at(at_limit, [this, id] {
      end_events_.erase(id);
      begin_grace(jobs_.at(id), EndReason::kTimeLimit);
    });
  }

  if (rec.spec.on_start) {
    if (config_.launch_latency > sim::SimTime::zero()) {
      auto cb = rec.spec.on_start;
      sim_.after(config_.launch_latency, [this, id, cb] {
        if (is_known(id) && jobs_.at(id).is_active()) cb(jobs_.at(id));
      });
    } else {
      rec.spec.on_start(rec);
    }
  }
}

void Slurmctld::begin_grace(JobRecord& rec, EndReason reason,
                            sim::SimTime grace_override) {
  assert(rec.state == JobState::kRunning);
  const sim::SimTime now = sim_.now();
  const Partition& part = partition_of(rec);
  sim::SimTime grace = part.grace_time;
  if (grace_override != sim::SimTime::max())
    grace = std::min(grace, grace_override);
  rec.state = JobState::kCompleting;
  rec.grace_reason = reason;
  // end_time doubles as the SIGKILL deadline while completing.
  rec.end_time = now + grace;
  for (const NodeId n : rec.nodes) touch(n);

  // The natural-end event no longer applies (we are being terminated);
  // unless the job would finish on its own before the SIGKILL deadline.
  const auto evt = end_events_.find(rec.id);
  if (evt != end_events_.end()) {
    sim_.cancel(evt->second);
    end_events_.erase(evt);
  }
  const JobId id = rec.id;
  const sim::SimTime natural =
      rec.spec.actual_runtime == sim::SimTime::max()
          ? sim::SimTime::max()
          : rec.start_time + rec.spec.actual_runtime;
  if (natural < rec.end_time) {
    end_events_[id] = sim_.at(natural, [this, id] {
      end_events_.erase(id);
      finish_job(jobs_.at(id), EndReason::kCompleted);
    });
  }

  kill_events_[id] = sim_.at(rec.end_time, [this, id, reason] {
    kill_events_.erase(id);
    finish_job(jobs_.at(id), reason);
  });

  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kSched, obs::Phase::kInstant, "job_grace",
        obs::Track::kSlurmctld, 0, rec.id, now, grace.to_seconds(),
        static_cast<double>(static_cast<int>(reason)));
  }
  notify_job(JobEventKind::kSigterm, rec, rec.end_time, grace, reason);

  if (rec.spec.on_sigterm) rec.spec.on_sigterm(rec);
}

void Slurmctld::finish_job(JobRecord& rec, EndReason reason) {
  const auto evt = end_events_.find(rec.id);
  if (evt != end_events_.end()) {
    sim_.cancel(evt->second);
    end_events_.erase(evt);
  }
  const auto kevt = kill_events_.find(rec.id);
  if (kevt != kill_events_.end()) {
    sim_.cancel(kevt->second);
    kill_events_.erase(kevt);
  }
  const bool was_active = rec.is_active();
  rec.end_time = sim_.now();
  switch (reason) {
    case EndReason::kCompleted:
      rec.state = JobState::kCompleted;
      ++counters_.completed;
      break;
    case EndReason::kTimeLimit:
      rec.state = JobState::kTimedOut;
      ++counters_.timed_out;
      break;
    case EndReason::kPreempted:
      rec.state = JobState::kPreempted;
      ++counters_.preempted;
      break;
    case EndReason::kCancelled:
      rec.state = JobState::kCancelled;
      ++counters_.cancelled;
      break;
    case EndReason::kNodeFailed:
      rec.state = JobState::kNodeFailed;
      break;
  }
  HW_OBS_IF(config_.obs) {
    config_.obs->trace.record_chained(
        obs::Cat::kSched, obs::Phase::kInstant, "job_end",
        obs::Track::kSlurmctld, 0, rec.id, rec.end_time,
        static_cast<double>(static_cast<int>(reason)));
  }
  notify_job(JobEventKind::kEnded, rec, sim::SimTime::zero(),
             sim::SimTime::zero(), reason);
  if (was_active) free_nodes(rec);
  if (was_active && config_.fidelity.fair_share.enabled) charge_fair_share(rec);
  victim_ended(rec.id);
  if (rec.spec.on_end) rec.spec.on_end(rec, reason);
  if (was_active) request_schedule();
}

void Slurmctld::free_nodes(const JobRecord& rec) {
  for (const NodeId n : rec.nodes) {
    Node& node = nodes_.at(n);
    if (node.state == NodeState::kDown) continue;  // failed underneath us
    auto& rj = node.running_jobs;
    const auto it = std::find(rj.begin(), rj.end(), &rec);
    if (it == rj.end()) continue;
    const ObservedNodeState prev = observed_state(n);
    rj.erase(it);
    node.allocated -= rec.spec.tres_per_node;
    if (rj.empty()) {
      node.allocated = TresVector{};
      if (draining_[n]) {
        // Maintenance hand-over: the node leaves service instead of
        // going back to the pool.
        node.state = NodeState::kDown;
      } else {
        node.state = NodeState::kIdle;
        last_freed_[n] = sim_.now();
      }
    }
    touch(n);
    if (observed_state(n) != prev) announce(n);
  }
}

void Slurmctld::victim_ended(JobId victim) {
  if (victim_claims_.empty()) return;
  const auto range = victim_claims_.equal_range(victim);
  if (range.first == range.second) return;
  std::vector<JobId> claimants;
  for (auto it = range.first; it != range.second; ++it)
    claimants.push_back(it->second);
  victim_claims_.erase(victim);

  for (const JobId claimant : claimants) {
    const auto plit =
        std::find_if(pending_launches_.begin(), pending_launches_.end(),
                     [claimant](const PendingLaunch& p) {
                       return p.id == claimant;
                     });
    if (plit == pending_launches_.end()) continue;
    assert(plit->victims_missing > 0);
    if (--plit->victims_missing != 0) continue;

    PendingLaunch pl = std::move(*plit);
    pending_launches_.erase(plit);
    for (const NodeId n : pl.nodes) {
      node_claims_.erase(n);
      touch(n);
    }
    JobRecord& rec = jobs_.at(pl.id);

    // Re-check the world: a node may have failed, drained or entered a
    // maintenance window while the victims drained.
    build_window_starts(window_from_);
    const sim::SimTime grace = partition_of(rec).grace_time;
    const bool usable = std::all_of(
        pl.nodes.begin(), pl.nodes.end(), [&](NodeId n) {
          return nodes_[n].state != NodeState::kDown && !draining_[n] &&
                 pl.granted_limit <= hole(sim::SimTime::max(), n, grace) &&
                 rec.spec.tres_per_node.fits_within(node_free(n));
        });
    if (!usable) {
      rec.state = JobState::kPending;
      enqueue_pending(rec.priority_tier, rec);
      request_schedule();
      continue;
    }
    launch(rec, std::move(pl.nodes), pl.granted_limit);
  }
}

void Slurmctld::drop_claim(JobId claimant) {
  for (auto it = pending_launches_.begin(); it != pending_launches_.end();
       ++it) {
    if (it->id != claimant) continue;
    for (const NodeId n : it->nodes) {
      node_claims_.erase(n);
      touch(n);
    }
    pending_launches_.erase(it);
    break;
  }
  for (auto it = victim_claims_.begin(); it != victim_claims_.end();) {
    it = it->second == claimant ? victim_claims_.erase(it) : std::next(it);
  }
}

void Slurmctld::requeue_claimant(NodeId node) {
  const auto claim = node_claims_.find(node);
  if (claim == node_claims_.end()) return;
  const JobId claimant = claim->second;
  drop_claim(claimant);
  JobRecord& rec = jobs_.at(claimant);
  rec.state = JobState::kPending;
  enqueue_pending(rec.priority_tier, rec);
}

// --- Reservations -----------------------------------------------------------

void Slurmctld::add_reservation(Reservation r) {
  if (!tres_on_)
    throw std::invalid_argument(
        "Slurmctld::add_reservation: requires fidelity.tres_mode");
  if (r.end <= r.start)
    throw std::invalid_argument("Slurmctld::add_reservation: empty window");
  for (const NodeId n : r.nodes) {
    if (n >= nodes_.size())
      throw std::invalid_argument("Slurmctld::add_reservation: bad node id");
  }
  const std::size_t index = reservations_.size();
  reservations_.push_back(std::move(r));
  const Reservation& res = reservations_.back();
  const sim::SimTime now = sim_.now();
  if (res.end <= now) return;  // already over; keep for the record only
  sim_.at(std::max(res.start, now),
          [this, index] { reservation_window_begin(index); });
  sim_.at(res.end, [this, index] { reservation_window_end(index); });
}

void Slurmctld::reservation_window_begin(std::size_t index) {
  const Reservation res = reservations_[index];  // copy: callbacks re-enter
  for (const NodeId id : res.nodes) {
    Node& node = nodes_.at(id);
    if (node.state == NodeState::kDown) continue;
    draining_[id] = true;
    touch(id);
    // A claimant waiting on this node can no longer be satisfied here.
    requeue_claimant(id);
    if (node.state == NodeState::kIdle) {
      node.state = NodeState::kDown;
      announce(id);
      continue;
    }
    // Jobs still on the node (the reservation was registered after they
    // launched): preempt with the partition grace. Completing jobs are
    // already on their way out.
    const std::vector<JobRecord*> doomed = node.running_jobs;
    for (JobRecord* rec : doomed) {
      if (rec->state == JobState::kRunning)
        begin_grace(*rec, EndReason::kPreempted);
    }
  }
}

void Slurmctld::reservation_window_end(std::size_t index) {
  const Reservation res = reservations_[index];
  const sim::SimTime now = sim_.now();
  for (const NodeId id : res.nodes) {
    // Another still-open window may cover the node; stay out if so.
    bool still_reserved = false;
    for (std::size_t i = 0; i < reservations_.size(); ++i) {
      if (i == index) continue;
      const Reservation& other = reservations_[i];
      if (other.start <= now && now < other.end &&
          std::find(other.nodes.begin(), other.nodes.end(), id) !=
              other.nodes.end()) {
        still_reserved = true;
        break;
      }
    }
    if (!still_reserved) set_node_up(id);
  }
}

// --- Fair-share / QOS -------------------------------------------------------

const Qos* Slurmctld::find_qos(const std::string& name) const {
  if (name.empty() || !qos_on_) return nullptr;
  const auto it = qos_.find(name);
  return it == qos_.end() ? nullptr : &it->second;
}

double Slurmctld::decayed_usage(const std::string& account) const {
  const auto it = usage_.find(account);
  if (it == usage_.end()) return 0.0;
  const FairShareConfig& fs = config_.fidelity.fair_share;
  if (fs.half_life <= sim::SimTime::zero()) return it->second.usage;
  const double dt = (sim_.now() - it->second.last).to_seconds();
  const double hl = fs.half_life.to_seconds();
  return it->second.usage * std::exp2(-dt / hl);
}

std::int64_t Slurmctld::debit_for_usage(double usage) const {
  const FairShareConfig& fs = config_.fidelity.fair_share;
  if (!fs.enabled || usage <= 0.0) return 0;
  const double frac = usage / (usage + fs.usage_norm);
  return std::llround(static_cast<double>(fs.weight) * frac);
}

void Slurmctld::charge_fair_share(const JobRecord& rec) {
  const FairShareConfig& fs = config_.fidelity.fair_share;
  if (!fs.enabled) return;
  const sim::SimTime elapsed = rec.end_time - rec.start_time;
  if (elapsed <= sim::SimTime::zero()) return;
  // Fractional allocations are charged in proportion to the cpu share
  // actually held (cons_tres billing weights, cpu axis only); whole-node
  // jobs hold all of it.
  const TresVector& capacity = nodes_.front().capacity;
  double node_seconds =
      elapsed.to_seconds() * static_cast<double>(rec.spec.num_nodes);
  if (capacity.cpus > 0) {
    node_seconds *= static_cast<double>(rec.spec.tres_per_node.cpus) /
                    static_cast<double>(capacity.cpus);
  }
  if (const Qos* q = find_qos(rec.spec.qos)) node_seconds *= q->usage_factor;
  const std::string& account =
      rec.spec.account.empty() ? rec.spec.partition : rec.spec.account;
  const double decayed = decayed_usage(account);
  AccountUsage& au = usage_[account];
  au.usage = decayed + node_seconds;
  au.last = sim_.now();
}

// --- Fidelity introspection -------------------------------------------------

const TresVector& Slurmctld::node_capacity(NodeId id) const {
  return nodes_.at(id).capacity;
}

TresVector Slurmctld::node_free(NodeId id) const {
  const Node& node = nodes_.at(id);
  return node.capacity - node.allocated;
}

Slurmctld::TresTotals Slurmctld::tres_totals() const {
  TresTotals t;
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kDown) continue;
    t.capacity += node.capacity;
    for (const JobRecord* rec : node.running_jobs) {
      if (rec->priority_tier == 0) {
        t.pilot += rec->spec.tres_per_node;
      } else {
        t.hpc += rec->spec.tres_per_node;
      }
    }
  }
  return t;
}

double Slurmctld::account_usage(const std::string& account) const {
  return decayed_usage(account);
}

std::int64_t Slurmctld::fair_share_debit(const std::string& account) const {
  return debit_for_usage(decayed_usage(account));
}

void Slurmctld::announce(NodeId node) {
  if (node_observer_)
    node_observer_(NodeTransition{sim_.now(), node, observed_state(node)});
}

void Slurmctld::notify_job(JobEventKind kind, const JobRecord& rec,
                           sim::SimTime deadline, sim::SimTime grace,
                           EndReason reason) {
  if (!job_observer_) return;
  JobEvent ev;
  ev.when = sim_.now();
  ev.kind = kind;
  ev.id = rec.id;
  ev.deadline = deadline;
  ev.grace = grace;
  ev.reason = reason;
  ev.job = &rec;
  job_observer_(ev);
}

}  // namespace hpcwhisk::slurm
