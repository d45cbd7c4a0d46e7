#include "hpcwhisk/slurm/planning_timeline.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace hpcwhisk::slurm {

std::vector<sim::SimTime>& PlanningTimeline::reset() {
  heap_.clear();
  built_ = false;
  return free_at_;
}

void PlanningTimeline::push(NodeId n) {
  if (free_at_[n] == sim::SimTime::max()) return;
  heap_.emplace_back(free_at_[n], n);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void PlanningTimeline::occupy(NodeId n, sim::SimTime until) {
  if (until <= free_at_[n]) return;  // also keeps down nodes at max()
  free_at_[n] = until;
  // An unbuilt heap is built from the values current at that time.
  if (built_) push(n);
}

std::optional<sim::SimTime> PlanningTimeline::reserve(
    std::uint32_t k, sim::SimTime latest, sim::SimTime length,
    std::vector<NodeId>& booked) {
  assert(k >= 1);
  booked.clear();
  if (!built_) {
    for (NodeId n = 0; n < free_at_.size(); ++n) {
      if (free_at_[n] != sim::SimTime::max()) heap_.emplace_back(free_at_[n], n);
    }
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    built_ = true;
  }

  while (booked.size() < k && !heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [t, n] = heap_.back();
    heap_.pop_back();
    if (t == free_at_[n]) booked.push_back(n);
  }
  if (booked.size() < k || free_at_[booked.back()] > latest) {
    // Nothing moved: the popped live entries go back unchanged.
    for (const NodeId n : booked) push(n);
    booked.clear();
    return std::nullopt;
  }
  const sim::SimTime start = free_at_[booked.back()];
  for (const NodeId n : booked) {
    free_at_[n] = start + length;
    push(n);
  }
  return start;
}

}  // namespace hpcwhisk::slurm
