#include "core/usweep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/priority_assignment.hpp"
#include "core/response_time_edf.hpp"
#include "core/response_time_fp.hpp"

namespace profisched {

TaskSet scale_to_utilization(const TaskSet& base, double u) {
  const double base_u = base.utilization();
  if (base_u <= 0.0) throw std::invalid_argument("scale_to_utilization: empty base set");
  const Ticks q1024 = static_cast<Ticks>(std::llround(u / base_u * 1024.0));
  std::vector<Task> tasks(base.begin(), base.end());
  for (Task& t : tasks) {
    const Ticks scaled = ceil_div(sat_mul(t.C, std::max<Ticks>(q1024, 0)), 1024);
    t.C = std::clamp<Ticks>(scaled, 1, std::min(t.T, t.D));
  }
  return TaskSet{std::move(tasks)};
}

namespace {

// The cell analyses fold per-task outcomes inside the analysis loop (see
// analyze_fp_cell / analyze_edf_cell): same order-independent fold this file
// used to perform over the per_task vectors, minus the vector.

USweepCell cell_from_fp(const FpCellResult& a, std::uint64_t& fp_iterations) {
  fp_iterations += a.iterations;
  return {a.schedulable, a.worst_response};
}

USweepCell cell_from_edf(const EdfCellResult& a, std::uint64_t& busy_iterations,
                         std::uint64_t& edf_offsets) {
  busy_iterations += static_cast<std::uint64_t>(a.busy_iterations);
  edf_offsets += a.offsets_examined;
  return {a.schedulable, a.worst_response};
}

}  // namespace

USweepResult run_usweep(const TaskSet& base, const USweepSpec& spec) {
  if (base.empty()) throw std::invalid_argument("run_usweep: empty base set");
  if (spec.u_grid.empty()) throw std::invalid_argument("run_usweep: empty u grid");
  if (spec.policies.empty()) throw std::invalid_argument("run_usweep: empty policy list");
  if (!std::is_sorted(spec.u_grid.begin(), spec.u_grid.end())) {
    throw std::invalid_argument("run_usweep: u grid must be ascending (warm-start contract)");
  }

  // T and D never change across the grid, so the priority orders are fixed;
  // computing them per point would yield the same permutations.
  const PriorityOrder rm = rate_monotonic_order(base);
  const PriorityOrder dm = deadline_monotonic_order(base);

  USweepResult out;
  out.points.reserve(spec.u_grid.size());
  // One scratch per policy slot: warm fixed points are only comparable
  // within one recurrence family.
  std::vector<RtaScratch> scratch(spec.policies.size());

  for (std::size_t k = 0; k < spec.u_grid.size(); ++k) {
    const TaskSet ts = scale_to_utilization(base, spec.u_grid[k]);
    const bool warm = spec.warm_start && k > 0;

    USweepPoint pt;
    pt.u_target = spec.u_grid[k];
    pt.u_actual = ts.utilization();
    pt.cells.reserve(spec.policies.size());

    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      RtaScratch& s = scratch[p];
      switch (spec.policies[p]) {
        case Policy::RateMonotonic:
          pt.cells.push_back(cell_from_fp(
              analyze_fp_cell(ts, rm, /*preemptive=*/true, spec.form, spec.fuel, s, warm),
              out.fp_iterations));
          break;
        case Policy::DeadlineMonotonic:
          pt.cells.push_back(cell_from_fp(
              analyze_fp_cell(ts, dm, /*preemptive=*/true, spec.form, spec.fuel, s, warm),
              out.fp_iterations));
          break;
        case Policy::NpDeadlineMonotonic:
          pt.cells.push_back(cell_from_fp(
              analyze_fp_cell(ts, dm, /*preemptive=*/false, spec.form, spec.fuel, s, warm),
              out.fp_iterations));
          break;
        case Policy::Edf:
          pt.cells.push_back(
              cell_from_edf(analyze_edf_cell(ts, /*preemptive=*/true, spec.fuel, s, warm),
                            out.busy_iterations, out.edf_offsets));
          break;
        case Policy::NpEdf:
          pt.cells.push_back(
              cell_from_edf(analyze_edf_cell(ts, /*preemptive=*/false, spec.fuel, s, warm),
                            out.busy_iterations, out.edf_offsets));
          break;
      }
    }
    out.points.push_back(std::move(pt));
  }
  return out;
}

}  // namespace profisched
