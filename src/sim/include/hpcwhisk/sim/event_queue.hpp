#pragma once
// A cancellable, deterministic discrete-event queue.
//
// Events scheduled for the same instant fire in schedule order (FIFO),
// which makes every simulation run bit-reproducible for a fixed seed.
// Each entry carries the clock reading it was scheduled at; since that
// reading only grows, ordering by (time, scheduled_at, rank, seq) is the
// same FIFO order for ordinary events (rank 0). A grid firing that its
// owner skipped ahead of (Simulation::at_grid) is scheduled late but
// stamped with the instant a simulated periodic loop would have armed it
// at, and ranked among the other grid firings of that instant, so it
// takes the very slot in the FIFO order that the loop's firing had.
//
// Storage is a slab of callback slots indexed by a free list; the heap
// holds 40-byte (time, scheduled_at, rank, seq, slot) keys only. The
// callbacks themselves are InplaceCallback<64>: typical closures (a
// this-pointer plus a couple of ids) live inline in the slab and
// scheduling never allocates.
//
// The heap is a 4-ary implicit min-heap: half the levels of a binary
// heap, and the four children of a node are adjacent in memory, so the
// sift-down that dominates pop() touches far less memory. Because the
// key is a total order, any correct priority queue pops the same
// sequence — the arity is invisible to simulation outcomes.
//
// pop() drains same-deadline runs in batches: the first pop of a
// deadline stages the whole run (up to kMaxStage) out of the heap in one
// tight drain, and the following pops serve the stage without touching
// the heap. Cancellation stays exact — staged entries are validated
// against the slab at claim time, so cancelling an event that is already
// staged (e.g. by an earlier event at the same instant) still prevents
// it from firing.
//
// Cancellation is O(1): the slot's callback is destroyed eagerly (so
// captured state is reclaimed at once, not when the tombstone is
// eventually popped) and the heap entry is dropped lazily. When
// tombstones outnumber live entries past a threshold the heap is
// compacted in one O(n) sweep, so cancellation-heavy workloads (periodic
// handles, drain timers, grace windows) never accumulate dead entries.

#include <cstdint>
#include <vector>

#include "hpcwhisk/sim/inplace_callback.hpp"
#include "hpcwhisk/sim/time.hpp"

namespace hpcwhisk::sim {

/// Opaque handle identifying a scheduled event; used to cancel it.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  constexpr bool operator==(const EventId&) const = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint64_t seq, std::uint32_t slot)
      : seq_{seq}, slot_{slot} {}
  std::uint64_t seq_{0};
  std::uint32_t slot_{0};
};

/// 4-ary min-heap of (time, sequence) with slab-allocated callbacks,
/// batched same-deadline draining and lazy tombstone removal.
class EventQueue {
 public:
  using Callback = InplaceCallback<64>;

  /// Schedules `cb` to fire at absolute time `when`. `when` must not be
  /// earlier than the last popped time (enforced by Simulation, not here).
  /// `scheduled_at` is the clock reading the event counts as scheduled
  /// at; `rank` orders events sharing `when` and `scheduled_at` before
  /// FIFO does (see the header comment). Both come back in Popped.
  EventId schedule(SimTime when, Callback cb,
                   SimTime scheduled_at = SimTime::zero(),
                   std::int64_t rank = 0);

  /// Cancels a previously scheduled event. Returns false if the event
  /// already fired or was already cancelled. The callback (and anything
  /// it captures) is destroyed before this returns.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Entries held by the queue including tombstones: the heap proper plus
  /// the staged same-deadline run. The heap portion is bounded at
  /// max(live + kCompactFloor, 2 * live) + 1 by compaction; the stage
  /// adds at most kMaxStage.
  [[nodiscard]] std::size_t heap_entries() const {
    return heap_.size() + (stage_.size() - stage_pos_);
  }

  /// Time of the earliest live event; SimTime::max() when empty.
  [[nodiscard]] SimTime next_time() const;

  struct Popped {
    SimTime when;
    SimTime scheduled_at;
    std::int64_t rank{0};
    Callback cb;
  };

  /// Pops and returns the earliest live event. Precondition: !empty().
  Popped pop();

  /// Pops the earliest live event into `out` if its time is <= `until`.
  /// Returns false (leaving `out` untouched) when the queue is empty or
  /// the earliest event is later. One call does the work of
  /// next_time() + pop() — the run loop's fast path.
  bool pop_due(SimTime until, Popped& out);

  /// Claims every event sharing the earliest live deadline (up to
  /// `max_n`) in one heap drain, appending to `out` in FIFO order.
  /// Returns the number claimed. Claimed events can no longer be
  /// cancelled — callers that may cancel same-instant events from within
  /// a callback (the simulation driver) must claim one event at a time
  /// via pop()/pop_due(), which stage the run internally but revalidate
  /// cancellation per event.
  std::size_t pop_batch(std::size_t max_n, std::vector<Popped>& out);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Compaction triggers when tombstones exceed both this floor and the
  /// live count — amortized O(1) per cancellation.
  static constexpr std::size_t kCompactFloor = 64;
  /// Longest same-deadline run staged out of the heap in one drain.
  static constexpr std::size_t kMaxStage = 64;

  struct Entry {
    SimTime when;
    SimTime scheduled_at;
    std::int64_t rank;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Total (when, scheduled_at, rank, seq) order: the pop sequence is
  /// unique, whatever the container shape.
  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.scheduled_at != b.scheduled_at)
      return a.scheduled_at < b.scheduled_at;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.seq < b.seq;
  }

  struct Slot {
    Callback cb;
    std::uint64_t seq{0};  ///< 0 while dead/free
    std::uint32_t next_free{kNoSlot};
  };

  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slots_[e.slot].seq == e.seq;
  }
  void release_slot(std::uint32_t slot);
  void claim(const Entry& e, Popped& out);

  // 4-ary heap primitives over heap_.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void push_entry(const Entry& e);
  void pop_root();
  void rebuild_heap();

  void drain_cancelled() const;
  /// Skips staged entries cancelled after staging.
  void drain_stage() const;
  /// Precondition: stage empty. Moves the earliest same-deadline run
  /// (up to kMaxStage live entries) from the heap into the stage.
  void refill_stage() const;
  void maybe_compact();

  mutable std::vector<Entry> heap_;
  /// Staged same-deadline run, served FIFO from stage_pos_. Entries here
  /// are out of the heap but still cancellable (slab seq validation).
  mutable std::vector<Entry> stage_;
  mutable std::size_t stage_pos_{0};
  mutable std::vector<Slot> slots_;
  mutable std::uint32_t free_head_{kNoSlot};
  std::uint64_t next_seq_{1};
  std::size_t live_{0};
};

}  // namespace hpcwhisk::sim
