// priority_assignment.hpp — fixed-priority assignment schemes (§2 of the
// paper): rate monotonic (RM), deadline monotonic (DM), and — as the standard
// completion of the fixed-priority toolbox — Audsley's optimal priority
// assignment (OPA).
//
// A priority order is represented as a permutation of task indices,
// highest priority first. Keeping the order separate from the TaskSet lets
// one set be analysed under several assignments.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "core/task.hpp"

namespace profisched {

/// Permutation of task indices, element 0 = highest priority.
using PriorityOrder = std::vector<std::size_t>;

/// Rate monotonic: shorter period => higher priority (ties by index, which
/// makes the assignment deterministic and the analysis reproducible).
[[nodiscard]] PriorityOrder rate_monotonic_order(const TaskSet& ts);

/// Deadline monotonic: shorter relative deadline => higher priority
/// (ties by index).
[[nodiscard]] PriorityOrder deadline_monotonic_order(const TaskSet& ts);

/// Inverse view: priority_rank[i] = position of task i in `order`
/// (0 = highest). Useful for O(1) "is j higher priority than i" queries.
[[nodiscard]] std::vector<std::size_t> priority_ranks(const PriorityOrder& order);

/// Audsley's optimal priority assignment over items 0..n-1 — the library's
/// one OPA driver (the profibus message adapter and the task tests both run
/// it). Works bottom-up: at each level it tries the unassigned items in
/// ascending index order and fixes the first that `feasible(order, rank)`
/// accepts. `order` is then a full permutation (highest first) holding the
/// other unassigned items in [0, rank), the candidate at `rank`, and the
/// items already fixed below it. Returns a full priority order iff one
/// exists under `feasible`; std::nullopt otherwise.
///
/// `feasible` must not depend on the relative order within [0, rank) (true
/// for every response-time analysis in this library: the interference sum
/// is order-independent), otherwise OPA's optimality argument does not apply.
template <typename LevelFeasible>
[[nodiscard]] std::optional<PriorityOrder> audsley_order(std::size_t n,
                                                         LevelFeasible&& feasible) {
  PriorityOrder order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t m = n; m > 0; --m) {  // [0, m) unassigned, ascending
    const auto first = order.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(m);
    std::size_t pos = 0;
    for (; pos < m; ++pos) {
      const auto cand = first + static_cast<std::ptrdiff_t>(pos);
      std::rotate(cand, cand + 1, last);  // candidate to the lowest free level
      if (feasible(std::span<const std::size_t>(order), m - 1)) break;
      std::rotate(cand, last - 1, last);  // undo
    }
    if (pos == m) return std::nullopt;  // no item fits the lowest level: infeasible
  }
  return order;
}

}  // namespace profisched
