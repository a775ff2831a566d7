#include "core/task.hpp"

#include <algorithm>

namespace profisched {

namespace {

void validate_one(const Task& t, std::size_t index) {
  const auto fail = [&](const char* what) {
    throw std::invalid_argument("Task #" + std::to_string(index) +
                                (t.name.empty() ? std::string{} : " (" + t.name + ")") + ": " +
                                what);
  };
  if (t.C < 1) fail("C must be >= 1 tick");
  if (t.T < 1) fail("T must be >= 1 tick");
  if (t.D < 1) fail("D must be >= 1 tick");
  if (t.C > t.T) fail("C must not exceed T (a single task must not saturate the resource)");
  if (t.J < 0) fail("J must be non-negative");
}

}  // namespace

void TaskSet::push_back(Task t) {
  validate_one(t, tasks_.size());
  tasks_.push_back(std::move(t));
}

double TaskSet::utilization() const {
  double u = 0.0;
  for (const Task& t : tasks_) u += t.utilization();
  return u;
}

Ticks TaskSet::total_execution() const {
  Ticks sum = 0;
  for (const Task& t : tasks_) sum = sat_add(sum, t.C);
  return sum;
}

Ticks TaskSet::max_execution() const {
  Ticks m = 0;
  for (const Task& t : tasks_) m = std::max(m, t.C);
  return m;
}

Ticks TaskSet::min_deadline() const {
  Ticks m = kNoBound;
  for (const Task& t : tasks_) m = std::min(m, t.D);
  return m;
}

Ticks TaskSet::max_deadline() const {
  Ticks m = 0;
  for (const Task& t : tasks_) m = std::max(m, t.D);
  return m;
}

Ticks TaskSet::hyperperiod() const {
  Ticks h = 1;
  for (const Task& t : tasks_) {
    h = lcm_ticks(h, t.T);
    if (h == kNoBound) return kNoBound;
  }
  return h;
}

bool TaskSet::implicit_deadlines() const {
  return std::ranges::all_of(tasks_, [](const Task& t) { return t.D == t.T; });
}

bool TaskSet::constrained_deadlines() const {
  return std::ranges::all_of(tasks_, [](const Task& t) { return t.D <= t.T; });
}

void TaskSet::validate() const {
  for (std::size_t i = 0; i < tasks_.size(); ++i) validate_one(tasks_[i], i);
}

}  // namespace profisched
