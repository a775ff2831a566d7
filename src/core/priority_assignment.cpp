#include "core/priority_assignment.hpp"

#include <algorithm>
#include <numeric>

namespace profisched {

namespace {

template <typename KeyFn>
PriorityOrder sorted_order(const TaskSet& ts, KeyFn key) {
  PriorityOrder order(ts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, [&](std::size_t a, std::size_t b) { return key(ts[a]) < key(ts[b]); });
  return order;
}

}  // namespace

PriorityOrder rate_monotonic_order(const TaskSet& ts) {
  return sorted_order(ts, [](const Task& t) { return t.T; });
}

PriorityOrder deadline_monotonic_order(const TaskSet& ts) {
  return sorted_order(ts, [](const Task& t) { return t.D; });
}

std::vector<std::size_t> priority_ranks(const PriorityOrder& order) {
  std::vector<std::size_t> rank(order.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos;
  return rank;
}

}  // namespace profisched
