// histogram.hpp — fixed-layout latency histogram for simulator statistics:
// hybrid linear/log2 bins (exact small values, bounded memory for tails),
// exact count/sum, and percentile queries answered from the bins.
//
// Layout: values in [0, linear_limit) land in unit-width linear bins; larger
// values land in one bin per power of two. This keeps sub-tick precision
// where responses cluster and never allocates per-sample.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/time_types.hpp"

namespace profisched::sim {

class Histogram {
 public:
  static constexpr Ticks kLinearLimit = 256;
  static constexpr std::size_t kLogBins = 48;  // covers up to 2^(8+48)

  void add(Ticks value, std::uint64_t weight = 1) {
    if (value < 0) value = 0;
    count_ += weight;
    sum_ += static_cast<double>(value) * static_cast<double>(weight);
    max_ = value > max_ ? value : max_;
    bins_[bin_index(value)] += weight;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] Ticks max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Upper bound of the bin containing the q-quantile (q in [0, 1]).
  /// Exact for values below kLinearLimit; within a factor of 2 above.
  [[nodiscard]] Ticks quantile(double q) const;

  /// Merge another histogram (same layout) into this one.
  void merge(const Histogram& other);

  /// Short text rendering: count, mean, p50/p95/p99, max.
  [[nodiscard]] std::string summary() const;

  /// Bin for bin, with the exact count, sum and max.
  bool operator==(const Histogram&) const = default;

 private:
  [[nodiscard]] static std::size_t bin_index(Ticks value) noexcept {
    if (value < kLinearLimit) return static_cast<std::size_t>(value);
    std::size_t log_bin = 0;
    Ticks v = value >> 8;  // kLinearLimit == 2^8
    while (v > 1 && log_bin + 1 < kLogBins) {
      v >>= 1;
      ++log_bin;
    }
    return static_cast<std::size_t>(kLinearLimit) + log_bin;
  }

  /// Upper bound of a bin's value range.
  [[nodiscard]] static Ticks bin_upper(std::size_t index) noexcept {
    if (index < static_cast<std::size_t>(kLinearLimit)) return static_cast<Ticks>(index);
    const std::size_t log_bin = index - static_cast<std::size_t>(kLinearLimit);
    return (kLinearLimit << (log_bin + 1)) - 1;
  }

  std::array<std::uint64_t, static_cast<std::size_t>(kLinearLimit) + kLogBins> bins_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  Ticks max_ = 0;
};

}  // namespace profisched::sim
