// dispatching.hpp — the three AP-level dispatching policies the paper
// compares, plus a single entry point that routes to the corresponding
// analysis. Shared by the analyses, the simulator and the benches.
#pragma once

#include <string_view>

#include "profibus/dm_analysis.hpp"
#include "profibus/edf_analysis.hpp"

namespace profisched::profibus {

/// How pending high-priority requests are ordered at a master.
enum class ApPolicy {
  Fcfs,  ///< stock PROFIBUS: stack FCFS queue, no AP reordering (§3)
  Dm,    ///< AP priority queue ordered by relative deadline (§4, eq. 16)
  Edf,   ///< AP priority queue ordered by absolute deadline (§4, eqs. 17–18)
};

[[nodiscard]] constexpr std::string_view to_string(ApPolicy p) {
  switch (p) {
    case ApPolicy::Fcfs: return "FCFS";
    case ApPolicy::Dm: return "DM";
    case ApPolicy::Edf: return "EDF";
  }
  return "?";
}

/// Run the worst-case response-time analysis for `policy` over the network.
[[nodiscard]] inline NetworkAnalysis analyze_network(
    const Network& net, ApPolicy policy, TcycleMethod method = TcycleMethod::PaperEq13) {
  switch (policy) {
    case ApPolicy::Fcfs: return analyze_fcfs(net, method);
    case ApPolicy::Dm: return analyze_dm(net, method);
    case ApPolicy::Edf: return analyze_edf(net, method);
  }
  return {};
}

}  // namespace profisched::profibus
