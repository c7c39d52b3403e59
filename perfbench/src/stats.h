// Sample summaries for the benchmark's timings.
//
// A timing is reported as its median plus the highest percentile that still
// has at least kTailBeyond samples above it, together with the sample count,
// so a tail figure never rests on a handful of observations.
#pragma once
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailBeyond = 10;

// The highest percentile of {50, 75, 90, 95, 99, 99.9, 99.99} (as a percent)
// that leaves at least kTailBeyond of `n` samples beyond it and is no higher
// than `cap`. Falls back to 50 when even the median lacks that support.
[[nodiscard]] double tail_percentile(std::size_t n, double cap = 100.0);

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 50.0;  // the percentile `tail` reports
  double tail = 0.0;
};

// Median and tail of `samples` (linear-interpolation percentiles).
// Requires a non-empty input.
[[nodiscard]] Summary summarize(std::vector<double> samples,
                                double cap = 100.0);

// "p99 of n=6048" — how a tail figure is labelled in the report.
[[nodiscard]] std::string describe(const Summary& summary);

// Median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> samples);

// Distance between the first and third quartile (linear interpolation).
[[nodiscard]] double iqr(std::vector<double> samples);

}  // namespace perfbench
