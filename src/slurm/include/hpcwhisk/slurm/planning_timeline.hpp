#pragma once
// One tier's EASY-backfill planning timeline: when each node is expected
// free, advanced in place as a scheduling pass launches jobs and books
// reservations, plus the one query a reservation needs — the k nodes
// that free earliest.
//
// The query is served from a min-heap of (free_at, node id) entries with
// lazy invalidation. A change pushes the node's new entry and leaves the
// old one behind; an entry is live iff its time equals the node's
// current value. Within a tier a node's value only grows (a launch keeps
// the later of the old value and its busy-until; a reservation books
// from the k-th earliest value, which no picked node exceeds), so each
// node has at most one live entry and the first k live entries popped
// are the k smallest (time, id) pairs — the set `std::nth_element` over
// all nodes picks, ties going to the lowest node ids. Nodes at
// SimTime::max() (down) never enter the heap. The heap is built by the
// tier's first reservation attempt with an O(N) make_heap, so a tier
// with no blocked job pays nothing for it.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hpcwhisk/sim/time.hpp"
#include "hpcwhisk/slurm/job.hpp"

namespace hpcwhisk::slurm {

class PlanningTimeline {
 public:
  /// Starts a tier: forgets the heap and returns the per-node timeline
  /// for the caller to fill (max() = never free). Capacity is reused.
  std::vector<sim::SimTime>& reset();

  [[nodiscard]] sim::SimTime free_at(NodeId n) const { return free_at_[n]; }

  /// Node `n` is busy until at least `until` (a launch or claim).
  void occupy(NodeId n, sim::SimTime until);

  /// Picks the `k` earliest-free nodes. If the k-th of them frees no
  /// later than `latest`, books them: each becomes free at that instant
  /// plus `length`, `booked` lists them earliest first, and the instant
  /// is returned. Otherwise, or when fewer than `k` nodes are ever free,
  /// nothing changes, `booked` is left empty and nullopt is returned.
  /// Requires k >= 1.
  std::optional<sim::SimTime> reserve(std::uint32_t k, sim::SimTime latest,
                                      sim::SimTime length,
                                      std::vector<NodeId>& booked);

 private:
  using Entry = std::pair<sim::SimTime, NodeId>;
  /// Enters node `n`'s current value unless it is max().
  void push(NodeId n);

  std::vector<sim::SimTime> free_at_;
  std::vector<Entry> heap_;  ///< min-heap; may hold stale entries
  bool built_{false};
};

}  // namespace hpcwhisk::slurm
