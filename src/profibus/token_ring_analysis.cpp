#include "profibus/token_ring_analysis.hpp"

#include <algorithm>

namespace profisched::profibus {

namespace {

/// C_M^k = max{ max_i Ch_i^k, Cl^k } (paper, below eq. 13).
Ticks longest(const CycleMaxima& m) { return std::max(m.high, m.low); }

Ticks lateness_sum(std::span<const CycleMaxima> maxima) {
  Ticks sum = 0;
  for (const CycleMaxima& m : maxima) sum = sat_add(sum, longest(m));
  return sum;
}

}  // namespace

std::vector<CycleMaxima> cycle_maxima(const Network& net) {
  std::vector<CycleMaxima> out;
  out.reserve(net.n_masters());
  for (const Master& m : net.masters) out.push_back({m.longest_high_cycle(), m.longest_low_cycle});
  return out;
}

Ticks t_del(const Network& net) {
  Ticks sum = 0;
  for (const Master& m : net.masters) sum = sat_add(sum, m.longest_cycle());
  return sum;
}

Ticks t_cycle(const Network& net) { return sat_add(net.ttr, t_del(net)); }

void t_cycle_per_master(Ticks ttr, std::span<const CycleMaxima> maxima, TcycleMethod method,
                        std::vector<Ticks>& out) {
  const std::size_t n = maxima.size();
  out.resize(n);

  if (method == TcycleMethod::PaperEq13) {
    std::ranges::fill(out, sat_add(ttr, lateness_sum(maxima)));
    return;
  }

  // PerMasterRefined: lateness seen by master k = max over the overrunning
  // master j of [ C_M^j + Σ_{m between j and k (exclusive, ring order)}
  // Ch-max^m ]. The overrunner contributes its longest cycle (the overrun);
  // intermediate masters received a late token, so each contributes at most
  // its one guaranteed high-priority cycle.
  for (std::size_t k = 0; k < n; ++k) {
    Ticks worst = 0;
    for (std::size_t j = 0; j < n; ++j) {
      Ticks lateness = longest(maxima[j]);
      for (std::size_t m = (j + 1) % n; m != k; m = (m + 1) % n) {
        if (m == j) break;  // full loop (k == j case handled by ring walk)
        lateness = sat_add(lateness, maxima[m].high);
      }
      worst = std::max(worst, lateness);
    }
    out[k] = sat_add(ttr, worst);
  }
}

TimingMemo compute_timing(const Network& net, TcycleMethod method) {
  const std::vector<CycleMaxima> maxima = cycle_maxima(net);
  TimingMemo memo;
  memo.method = method;
  memo.tdel = lateness_sum(maxima);
  memo.tcycle = sat_add(net.ttr, memo.tdel);
  t_cycle_per_master(net.ttr, maxima, method, memo.per_master);
  return memo;
}

}  // namespace profisched::profibus
