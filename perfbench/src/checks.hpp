#pragma once
// Correctness checks run after every measured run: call conservation,
// the SimCheck Slurm invariants, and the decision digest.

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

/// Defects the benchmark's own tests plant to prove the checks bite.
/// They alter only the copy of the run's records that the checks read.
enum class Plant {
  kNone,
  kCorruptActivation,  ///< one completed call reads as still queued
  kDoubleAllocation,   ///< one HPC job's nodes also claimed by another
};

/// Throws std::invalid_argument for an unknown name.
Plant plant_from_string(const std::string& name);

/// FNV-1a over every Slurm job record (id order) and every activation
/// record (id order) of every cluster, plus the cloud fallback's
/// records when federated; read through public accessors only.
std::uint64_t decision_digest(World& world);

struct CheckResult {
  /// One line per violation; empty means the run is correct.
  std::vector<std::string> violations;
  /// Violations of SimCheck's pilot-accounting invariant. It checks the
  /// job manager, not Slurm or the calls, so it is reported but does not
  /// fail the run (see perfbench/README.md, "Known defect").
  std::vector<std::string> pilot_accounting;
};

CheckResult run_checks(World& world, Plant plant);

}  // namespace perfbench
