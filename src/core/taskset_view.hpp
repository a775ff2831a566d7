// taskset_view.hpp — flat structure-of-arrays view over a TaskSet, plus the
// reusable scratch arena the optimized analysis kernels iterate from.
//
// The AoS TaskSet (core/task.hpp) is the right construction/validation
// surface, but the fixed-point kernels only ever read the four Ticks fields —
// walking Task objects drags each task's std::string name through the cache
// and, in the fixed-priority analyses, forces a `higher_priority` index
// vector per task. Binding a TaskSetView copies C/T/D/J once into four
// contiguous arrays (optionally permuted into priority order, so "all
// higher-priority tasks" is simply the prefix [0, rank)) and the inner loops
// become branch-light streaming passes with no indirection.
//
// Bit-identical guarantee: a bound view preserves the task order it was built
// with, so every kernel that iterates a view performs exactly the arithmetic,
// in exactly the order, of its retained TaskSet-based reference — including
// the double-precision utilization sum, which is order-sensitive.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/simd.hpp"
#include "core/task.hpp"

namespace profisched {

/// True only when `u`, a double sum of n terms C_i/T_i, proves the exact sum
/// exceeds 1: it must clear 1 by more than its rounding error (below n + 1
/// epsilons), so a set at exactly U = 1 is never rejected. The overloaded
/// sets this lets through still end unbounded (their busy-period iterates
/// grow strictly); the check only skips that iteration.
[[nodiscard]] inline bool exceeds_one(double u, std::size_t n) noexcept {
  return u > 1.0 + static_cast<double>(n + 1) * std::numeric_limits<double>::epsilon();
}

/// Non-owning SoA view. Element p of each array describes one task; when the
/// view was bound with a priority order, p is the priority rank (0 highest)
/// and index[p] maps back to the TaskSet position.
struct TaskSetView {
  const Ticks* C = nullptr;
  const Ticks* T = nullptr;
  const Ticks* D = nullptr;
  const Ticks* J = nullptr;
  const std::size_t* index = nullptr;  ///< view position -> TaskSet position
  std::size_t n = 0;

  /// Arena-bound views pad the four arrays out to this count (a multiple of
  /// the widest lane width) with neutral slots (C=0, T=1, D=0, J=0) so the
  /// full-set vector kernels need no tail handling; the padding contributes
  /// exactly zero to every sum. n_padded == n for hand-built views.
  std::size_t n_padded = 0;

  /// Per-element 1.0 / T[i] (padded like the arrays), or nullptr for
  /// hand-built views. Precomputed at bind so the lane kernels never divide.
  const double* recip_t = nullptr;

  /// True when this view satisfies the vector-kernel input gate (every
  /// C/T/D/J ≤ simd::kMaxValue, 0 ≤ C ≤ T, n ≤ simd::kMaxTasks) and recip_t
  /// is bound.
  bool simd_ok = false;

  [[nodiscard]] bool empty() const noexcept { return n == 0; }

  /// Σ C_i / T_i summed in view order (== TaskSet::utilization() for an
  /// identity-bound view; the FP sum is order-sensitive, so permuted views
  /// must not be used where the reference compares against utilization()).
  [[nodiscard]] double utilization() const noexcept {
    double u = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      u += static_cast<double>(C[i]) / static_cast<double>(T[i]);
    }
    return u;
  }

  /// Σ C_i (saturating) in view order.
  [[nodiscard]] Ticks total_execution() const noexcept {
    Ticks sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum = sat_add(sum, C[i]);
    return sum;
  }

  /// Σ C_i / T_i > 1, decided without rounding error (see exceeds_one).
  [[nodiscard]] bool overloaded() const noexcept { return exceeds_one(utilization(), n); }
};

/// Reusable arena materializing TaskSetViews. Buffers grow to the high-water
/// task count and are then reused: binding is allocation-free in steady
/// state, which is what lets a full sweep run the kernels without touching
/// the allocator. The returned view aliases the arena — it is invalidated by
/// the next bind() on the same arena.
class TaskSetArena {
 public:
  /// Bind in TaskSet order (index[p] == p).
  const TaskSetView& bind(const TaskSet& ts) {
    return bind_rows(nullptr, ts.size(), [&ts](std::size_t i) -> const Task& { return ts[i]; });
  }

  /// Bind permuted: view position p holds the task at order[p]. `order` may
  /// cover a subset of the set (the view then has order.size() elements);
  /// indices are bounds-checked.
  const TaskSetView& bind(const TaskSet& ts, std::span<const std::size_t> order) {
    return bind_rows(order.data(), order.size(),
                     [&ts](std::size_t i) -> const Task& { return ts[i]; });
  }

  /// Bind rows that are not Tasks: view position p holds row(order[p])
  /// (row(p) when `order` is null), where row(i) yields anything with C, T,
  /// D and J members. The profibus message adapters bind a master's streams
  /// with C = T_cycle this way. Rows may break TaskSet's C ≤ T invariant;
  /// such a view is simply not simd_ok and runs on the scalar kernels.
  template <typename RowFn>
  const TaskSetView& bind_rows(const std::size_t* order, std::size_t n, RowFn&& row);

 private:
  std::vector<Ticks> c_, t_, d_, j_;
  std::vector<double> recip_t_;
  std::vector<std::size_t> idx_;
  TaskSetView view_;
};

template <typename RowFn>
const TaskSetView& TaskSetArena::bind_rows(const std::size_t* order, std::size_t n,
                                           RowFn&& row) {
  // Pad to the widest lane width so full-set kernels need no tail pass.
  const std::size_t np = (n + 3) & ~std::size_t{3};
  // Reciprocals only depend on the T column: a position keeps its division
  // while its period is unchanged (an OPA level test moves only the rotated
  // positions).
  c_.resize(np);
  t_.resize(np);
  d_.resize(np);
  j_.resize(np);
  recip_t_.resize(np);
  idx_.resize(n);
  Ticks max_field = 0;
  bool rel_ok = true;  // 0 ≤ C ≤ T: the kernels' product-exactness invariant
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t i = order != nullptr ? order[p] : p;
    const auto& r = row(i);
    c_[p] = r.C;
    if (t_[p] != r.T) {
      t_[p] = r.T;
      recip_t_[p] = 1.0 / static_cast<double>(r.T);
    }
    d_[p] = r.D;
    j_[p] = r.J;
    idx_[p] = i;
    max_field = std::max({max_field, r.T, r.D, r.J});  // C ≤ T checked below
    rel_ok = rel_ok && r.C >= 0 && r.C <= r.T;
  }
  for (std::size_t p = n; p < np; ++p) {
    c_[p] = 0;
    t_[p] = 1;
    recip_t_[p] = 1.0;
    d_[p] = 0;
    j_[p] = 0;
  }
  view_ = TaskSetView{c_.data(), t_.data(),    d_.data(),
                      j_.data(), idx_.data(),  n,
                      np,        recip_t_.data(),
                      rel_ok && n <= simd::kMaxTasks && max_field <= simd::kMaxValue};
  return view_;
}

/// Per-worker scratch for the optimized core analyses: one arena plus the
/// buffers the kernels would otherwise allocate per call. Reusing one
/// RtaScratch across calls makes whole-set analyses allocation-free in
/// steady state (only the per-call result vectors remain). No analysis
/// result carries over from one call to the next.
struct RtaScratch {
  TaskSetArena arena;
  std::vector<std::uint64_t> next_terms;  ///< EDF offset walk: each item's next deadline term
  std::vector<Ticks> caps;                ///< EDF offset walk: each item's terms <= a + D_i
  std::vector<Ticks> np_blocking;         ///< per-rank suffix-max blocking factors
  std::vector<std::size_t> order;         ///< priority-order buffer for per-call sorts
};

}  // namespace profisched
