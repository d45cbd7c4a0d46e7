#include "hpcwhisk/slurm/planning_timeline.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace hpcwhisk::slurm {

namespace {
constexpr std::size_t kWordBits = 64;
/// Below every value a view can hold.
constexpr sim::SimTime kNoOverlay =
    sim::SimTime::micros(std::numeric_limits<std::int64_t>::min());

bool test_bit(const std::vector<std::uint64_t>& bits, NodeId n) {
  return (bits[n / kWordBits] >> (n % kWordBits)) & 1U;
}
void set_bit(std::vector<std::uint64_t>& bits, NodeId n) {
  bits[n / kWordBits] |= std::uint64_t{1} << (n % kWordBits);
}
void clear_bit(std::vector<std::uint64_t>& bits, NodeId n) {
  bits[n / kWordBits] &= ~(std::uint64_t{1} << (n % kWordBits));
}
}  // namespace

bool PlanningTimeline::later(const Entry& a, const Entry& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.node > b.node;
}

void PlanningTimeline::push(std::vector<Entry>& heap, const Entry& e) {
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(), later);
}

PlanningTimeline::Entry PlanningTimeline::pop(std::vector<Entry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), later);
  const Entry e = heap.back();
  heap.pop_back();
  return e;
}

bool PlanningTimeline::overlaid(NodeId n) const {
  return overlay_[n] != kNoOverlay;
}

void PlanningTimeline::resize(std::size_t nodes) {
  const std::size_t words = (nodes + kWordBits - 1) / kWordBits;
  release_.assign(nodes, sim::SimTime::zero());
  stamp_.assign(nodes, 0);
  free_.assign(words, ~std::uint64_t{0});
  if (nodes % kWordBits != 0)
    free_.back() = (std::uint64_t{1} << (nodes % kWordBits)) - 1;
  heap_.clear();
  view_free_.assign(words, 0);
  overlay_.assign(nodes, kNoOverlay);
}

void PlanningTimeline::set_release(NodeId n, sim::SimTime release,
                                   sim::SimTime now) {
  assert(overlaid_.empty() && restore_.empty() && "inside a tier");
  if (release == release_[n]) return;
  release_[n] = release;
  ++stamp_[n];  // retires the node's heap entry, if any
  if (release <= now) {
    set_bit(free_, n);
    return;
  }
  clear_bit(free_, n);
  if (release != sim::SimTime::max()) push(heap_, {release, n, stamp_[n]});
}

void PlanningTimeline::begin(sim::SimTime now) {
  now_ = now;
  while (!heap_.empty() && heap_.front().time <= now) {
    const Entry e = pop(heap_);
    if (e.stamp == stamp_[e.node]) set_bit(free_, e.node);
  }
  view_free_ = free_;
  first_word_ = 0;
}

void PlanningTimeline::end() {
  for (const NodeId n : overlaid_) overlay_[n] = kNoOverlay;
  overlaid_.clear();
  overlay_heap_.clear();
  for (const Entry& e : restore_) push(heap_, e);
  restore_.clear();
}

sim::SimTime PlanningTimeline::free_at(NodeId n) const {
  if (overlaid(n)) return overlay_[n];
  return test_bit(view_free_, n) ? now_ : release_[n];
}

void PlanningTimeline::occupy(NodeId n, sim::SimTime until) {
  if (until <= free_at(n)) return;  // also keeps down nodes at max()
  clear_bit(view_free_, n);
  if (!overlaid(n)) overlaid_.push_back(n);
  overlay_[n] = until;
  push(overlay_heap_, {until, n, 0});
}

std::optional<sim::SimTime> PlanningTimeline::reserve(
    std::uint32_t k, sim::SimTime latest, sim::SimTime length,
    std::vector<NodeId>& booked) {
  assert(k >= 1);
  booked.clear();
  picks_.clear();
  while (first_word_ < view_free_.size() && view_free_[first_word_] == 0)
    ++first_word_;
  std::size_t word = first_word_;
  std::uint64_t bits = word < view_free_.size() ? view_free_[word] : 0;

  while (booked.size() < k) {
    // The three streams' heads, each ascending by (time, id): nodes free
    // now in id order, later base releases, and raised nodes.
    while (bits == 0 && ++word < view_free_.size()) bits = view_free_[word];
    while (!heap_.empty()) {
      const Entry& e = heap_.front();
      if (e.stamp != stamp_[e.node]) {
        pop(heap_);  // retired
      } else if (overlaid(e.node)) {
        restore_.push_back(pop(heap_));  // hidden until end()
      } else {
        break;
      }
    }
    while (!overlay_heap_.empty() &&
           overlay_heap_.front().time != overlay_[overlay_heap_.front().node])
      pop(overlay_heap_);

    Pick best{};
    bool found = false;
    if (bits != 0) {
      const auto n =
          static_cast<NodeId>(word * kWordBits + std::countr_zero(bits));
      best = {{now_, n, 0}, Source::kFree};
      found = true;
    }
    if (!heap_.empty() && (!found || later(best.entry, heap_.front()))) {
      best = {heap_.front(), Source::kBase};
      found = true;
    }
    if (!overlay_heap_.empty() &&
        (!found || later(best.entry, overlay_heap_.front()))) {
      best = {overlay_heap_.front(), Source::kOverlay};
      found = true;
    }
    if (!found) break;
    switch (best.source) {
      case Source::kFree: bits &= bits - 1; break;
      case Source::kBase: pop(heap_); break;
      case Source::kOverlay: pop(overlay_heap_); break;
    }
    picks_.push_back(best);
    booked.push_back(best.entry.node);
  }

  if (booked.size() < k || picks_.back().entry.time > latest) {
    // Nothing moved: the popped live entries go back unchanged.
    for (const Pick& p : picks_) {
      if (p.source == Source::kBase) push(heap_, p.entry);
      if (p.source == Source::kOverlay) push(overlay_heap_, p.entry);
    }
    booked.clear();
    return std::nullopt;
  }
  const sim::SimTime start = picks_.back().entry.time;
  for (const Pick& p : picks_) {
    const NodeId n = p.entry.node;
    if (p.source == Source::kBase) restore_.push_back(p.entry);
    clear_bit(view_free_, n);
    if (!overlaid(n)) overlaid_.push_back(n);
    overlay_[n] = start + length;
    push(overlay_heap_, {start + length, n, 0});
  }
  return start;
}

}  // namespace hpcwhisk::slurm
