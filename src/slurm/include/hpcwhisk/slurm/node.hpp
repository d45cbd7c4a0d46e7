#pragma once
// Cluster node model and the observable node states used by the paper's
// Slurm-level monitoring perspective (idle / HPC / pilot / down).

#include <cstdint>
#include <vector>

#include "hpcwhisk/slurm/job.hpp"
#include "hpcwhisk/slurm/tres.hpp"

namespace hpcwhisk::slurm {

/// Internal allocation state of a node.
enum class NodeState : std::uint8_t {
  kIdle,
  kAllocated,
  kDown,
};

/// What an external observer (the paper's 10-second `sinfo` logger)
/// sees: a node is either running prime HPC work, running an HPC-Whisk
/// pilot, idle, or unavailable.
enum class ObservedNodeState : std::uint8_t {
  kIdle = 0,
  kHpc = 1,
  kPilot = 2,
  kDown = 3,
};

[[nodiscard]] const char* to_string(ObservedNodeState s);

struct Node {
  NodeId id{0};
  NodeState state{NodeState::kIdle};
  /// Which of the scheduler's maintained indexes still have to re-read
  /// this node since it last changed (Slurmctld::kStale* bits).
  std::uint8_t stale{0};
  /// Total TRES this node offers. Legacy (whole-node) mode gives every
  /// node one indivisible unit and every job requests all of it, so at
  /// most one job runs on a node there.
  TresVector capacity{};
  TresVector allocated{};  ///< Σ per-node TRES of running/completing jobs
  /// Jobs holding part of this node (records are owned by Slurmctld and
  /// never move or die while it lives).
  std::vector<JobRecord*> running_jobs{};
};

}  // namespace hpcwhisk::slurm
