#pragma once
// Trackable resources (Slurm "TRES"): the per-node resource vector the
// scheduler packs jobs by.
//
// Every node carries a capacity vector and every job a per-node request.
// With the opt-in fidelity mode (Slurmctld::Config::fidelity.tres_mode)
// requests may be fractions of a node, so a node can host prime HPC work
// and an HPC-Whisk pilot simultaneously (fractional-node harvesting), the
// way Slurm's cons_tres select plugin allocates cpus/memory/gres
// independently. Without it every node is one indivisible unit and every
// job requests all of it: whole-node exclusive allocation.

#include <cstdint>
#include <string>

namespace hpcwhisk::slurm {

struct TresVector {
  std::uint32_t cpus{0};
  std::uint32_t mem_mb{0};
  std::uint32_t gres{0};  ///< opaque generic-resource count (e.g. GPUs)

  [[nodiscard]] constexpr bool is_zero() const {
    return cpus == 0 && mem_mb == 0 && gres == 0;
  }

  /// Component-wise <=: does this request fit inside `cap`?
  [[nodiscard]] constexpr bool fits_within(const TresVector& cap) const {
    return cpus <= cap.cpus && mem_mb <= cap.mem_mb && gres <= cap.gres;
  }

  constexpr TresVector& operator+=(const TresVector& o) {
    cpus += o.cpus;
    mem_mb += o.mem_mb;
    gres += o.gres;
    return *this;
  }

  /// Saturating subtraction: releasing more than is held clamps to zero
  /// instead of wrapping (the invariant suite catches the underlying
  /// accounting bug from the event stream; the allocator must not UB).
  constexpr TresVector& operator-=(const TresVector& o) {
    cpus = cpus >= o.cpus ? cpus - o.cpus : 0;
    mem_mb = mem_mb >= o.mem_mb ? mem_mb - o.mem_mb : 0;
    gres = gres >= o.gres ? gres - o.gres : 0;
    return *this;
  }

  friend constexpr TresVector operator+(TresVector a, const TresVector& b) {
    a += b;
    return a;
  }
  friend constexpr TresVector operator-(TresVector a, const TresVector& b) {
    a -= b;
    return a;
  }
  friend constexpr bool operator==(const TresVector&,
                                   const TresVector&) = default;

  [[nodiscard]] std::string to_string() const {
    return "cpu=" + std::to_string(cpus) + ",mem=" + std::to_string(mem_mb) +
           "M,gres=" + std::to_string(gres);
  }
};

}  // namespace hpcwhisk::slurm
