#pragma once
// One HPC tier's release index, kept up to date across scheduling passes,
// and the EASY-backfill planning view a pass builds on top of it.
//
// The index holds, per node, its raw release for the tier: the latest
// expected end among the residents the tier cannot preempt (zero when
// there are none, SimTime::max() when the node is down). The scheduler
// updates it node by node as nodes change state (set_release). A pass
// then asks for the k nodes that free earliest, where a node frees at
// max(now, release) and ties go to the lowest node ids, without visiting
// the other nodes:
//  * a bitset holds the nodes free by the last begin(); they all free at
//    `now` and are read in id order;
//  * a min-heap holds (release, id, stamp) entries for the nodes that
//    free later, lazily invalidated: every change bumps the node's stamp,
//    so an entry is live iff its stamp is the node's current one and each
//    node has at most one live entry. begin() moves the entries that have
//    come due into the bitset. Down nodes are in neither.
//
// Between begin() and end() (one tier of one pass), launches, claims and
// bookings raise nodes' values (occupy, reserve) in a pass-local overlay:
// a per-node value plus a second lazily invalidated min-heap. Within a
// tier a node's value only grows (a launch keeps the later of the old
// value and its busy-until; a booking starts at the k-th earliest value,
// which no picked node exceeds), so each overlaid node has one live
// overlay entry, and its base entry is skipped until end(). The first k
// live picks of the merged streams (free bits, base heap, overlay heap)
// are therefore the k smallest (free_at, id) pairs: the set
// `std::nth_element` over all nodes picks. end() drops the overlay and
// pushes back the base entries the tier popped, which leaves the index
// as begin() found it. Steady-state use allocates nothing.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "hpcwhisk/sim/time.hpp"
#include "hpcwhisk/slurm/job.hpp"

namespace hpcwhisk::slurm {

class PlanningTimeline {
 public:
  /// Sizes the index for `nodes` nodes, all free (release zero).
  void resize(std::size_t nodes);

  /// Node `n`'s release is now `release`, as of `now`. Outside a tier
  /// only; `now` never decreases from call to call.
  void set_release(NodeId n, sim::SimTime release, sim::SimTime now);
  [[nodiscard]] sim::SimTime release(NodeId n) const { return release_[n]; }

  /// Opens one tier's planning view at `now` (not before the latest
  /// set_release instant).
  void begin(sim::SimTime now);
  /// Closes the view, dropping every occupy and booking made in it.
  void end();

  /// In the open view: when node `n` is expected free (max() = never).
  [[nodiscard]] sim::SimTime free_at(NodeId n) const;

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
  struct Entry {
    sim::SimTime time;
    NodeId node{0};
    std::uint32_t stamp{0};  ///< base heap only
  };
  /// Heap order: a min-heap on (time, node).
  static bool later(const Entry& a, const Entry& b);
  static void push(std::vector<Entry>& heap, const Entry& e);
  static Entry pop(std::vector<Entry>& heap);
  [[nodiscard]] bool overlaid(NodeId n) const;

  // --- Maintained across passes.
  std::vector<sim::SimTime> release_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint64_t> free_;  ///< release <= the last begin()
  std::vector<Entry> heap_;          ///< later releases; may hold stale entries

  // --- The open view; empty between tiers.
  sim::SimTime now_;
  std::vector<std::uint64_t> view_free_;  ///< free_ minus raised nodes
  std::size_t first_word_{0};             ///< view_free_ words before are 0
  std::vector<sim::SimTime> overlay_;     ///< per node; kNoOverlay if none
  std::vector<Entry> overlay_heap_;
  std::vector<NodeId> overlaid_;
  std::vector<Entry> restore_;  ///< live base entries popped in this view
  /// One reserve's picks, in order, with where each came from.
  enum class Source : std::uint8_t { kFree, kBase, kOverlay };
  struct Pick {
    Entry entry;
    Source source;
  };
  std::vector<Pick> picks_;
};

}  // namespace hpcwhisk::slurm
