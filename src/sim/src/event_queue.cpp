#include "hpcwhisk/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hpcwhisk::sim {

// --- 4-ary heap primitives ---------------------------------------------------

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    if (!entry_before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::push_entry(const Entry& e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void EventQueue::pop_root() {
  const Entry e = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up deletion: walk the hole from the root to a leaf along the
  // min-child path without comparing `e` at every level — `e` came from
  // the bottom of the heap, so it almost always belongs back near a
  // leaf, and the per-level compare a plain sift-down spends on it is
  // nearly always wasted. Then bubble `e` up from the leaf hole (rarely
  // more than one level).
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (entry_before(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::rebuild_heap() {
  if (heap_.size() < 2) return;
  // Floyd build: sift down every internal node, deepest parent first.
  for (std::size_t i = (heap_.size() - 2) >> 2;; --i) {
    sift_down(i);
    if (i == 0) break;
  }
}

// --- Scheduling --------------------------------------------------------------

EventId EventQueue::schedule(SimTime when, Callback cb, SimTime scheduled_at,
                             std::int64_t rank) {
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.seq = seq;
  s.next_free = kNoSlot;
  push_entry(Entry{when, scheduled_at, rank, seq, slot});
  ++live_;
  return EventId{seq, slot};
}

bool EventQueue::cancel(EventId id) {
  if (id.seq_ == 0 || id.slot_ >= slots_.size()) return false;
  Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return false;  // already fired or cancelled
  // Eager reclamation: the callback (and its captures) dies now; only
  // the 40-byte heap (or stage) entry lingers as a tombstone until
  // drained.
  s.cb = nullptr;
  s.seq = 0;
  s.next_free = free_head_;
  free_head_ = id.slot_;
  --live_;
  maybe_compact();
  return true;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.seq = 0;
  s.next_free = free_head_;
  free_head_ = slot;
}

// --- Tombstone handling ------------------------------------------------------

void EventQueue::drain_cancelled() const {
  // Const because callers like next_time() are logically const; dropping
  // tombstones never changes observable state. Cancelled entries' slots
  // were already returned to the free list by cancel(), so a tombstone
  // is any entry whose slot has moved on to a different seq (or none).
  while (!heap_.empty() && !entry_live(heap_.front())) {
    const_cast<EventQueue*>(this)->pop_root();
  }
}

void EventQueue::drain_stage() const {
  while (stage_pos_ < stage_.size() && !entry_live(stage_[stage_pos_]))
    ++stage_pos_;
  if (stage_pos_ == stage_.size() && !stage_.empty()) {
    stage_.clear();
    stage_pos_ = 0;
  }
}

void EventQueue::refill_stage() const {
  drain_cancelled();
  if (heap_.empty()) return;
  const SimTime t = heap_.front().when;
  do {
    stage_.push_back(heap_.front());
    const_cast<EventQueue*>(this)->pop_root();
    drain_cancelled();
  } while (!heap_.empty() && heap_.front().when == t &&
           stage_.size() < kMaxStage);
}

void EventQueue::maybe_compact() {
  // live_ counts staged entries too, so heap_.size() - live_ is a lower
  // bound on the heap's tombstones (never an overcount); the guard also
  // keeps the subtraction from wrapping while the stage holds live work.
  if (heap_.size() <= live_) return;
  const std::size_t dead = heap_.size() - live_;
  if (dead <= kCompactFloor || dead <= live_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  rebuild_heap();
}

// --- Popping -----------------------------------------------------------------

SimTime EventQueue::next_time() const {
  drain_stage();
  drain_cancelled();
  if (stage_pos_ < stage_.size()) {
    // Steady state: the stage holds the earliest deadline. Only an
    // out-of-band schedule (settle_to + at) can slip under it.
    const Entry& s = stage_[stage_pos_];
    if (heap_.empty() || !entry_before(heap_.front(), s)) return s.when;
    return heap_.front().when;
  }
  if (heap_.empty()) return SimTime::max();
  return heap_.front().when;
}

void EventQueue::claim(const Entry& e, Popped& out) {
  out.when = e.when;
  out.scheduled_at = e.scheduled_at;
  out.rank = e.rank;
  out.cb = std::move(slots_[e.slot].cb);
  release_slot(e.slot);
  --live_;
}

bool EventQueue::pop_due(SimTime until, Popped& out) {
  drain_stage();
  if (stage_pos_ == stage_.size()) {
    refill_stage();
    if (stage_.empty()) return false;
  }
  const Entry s = stage_[stage_pos_];
  // Merge with the heap: entries scheduled after staging can only sort
  // before the stage when the caller rewound past the staged deadline
  // (settle_to + at); inside the run loop the stage always wins.
  drain_cancelled();
  if (!heap_.empty() && entry_before(heap_.front(), s)) {
    const Entry h = heap_.front();
    if (h.when > until) return false;
    pop_root();
    claim(h, out);
    return true;
  }
  if (s.when > until) return false;
  ++stage_pos_;
  claim(s, out);
  return true;
}

EventQueue::Popped EventQueue::pop() {
  Popped out;
  [[maybe_unused]] const bool popped = pop_due(SimTime::max(), out);
  assert(popped && "pop() on empty EventQueue");
  return out;
}

std::size_t EventQueue::pop_batch(std::size_t max_n, std::vector<Popped>& out) {
  std::size_t claimed = 0;
  SimTime deadline;
  while (claimed < max_n) {
    drain_stage();
    if (stage_pos_ == stage_.size()) refill_stage();
    if (stage_pos_ == stage_.size()) break;
    const Entry s = stage_[stage_pos_];
    if (claimed == 0) {
      deadline = s.when;
    } else if (s.when != deadline) {
      break;  // next run starts a new deadline
    }
    ++stage_pos_;
    out.emplace_back();
    claim(s, out.back());
    ++claimed;
  }
  return claimed;
}

}  // namespace hpcwhisk::sim
