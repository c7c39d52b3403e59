#include "stats.h"

#include <sstream>
#include <stdexcept>

#include "util/stats.h"

namespace perfbench {

double tail_percentile(std::size_t n, double cap) {
  // Percentile q leaves n / k samples beyond it, with k = 100 / (100 - q);
  // integer k keeps the support test exact.
  struct Rung {
    double q;
    std::size_t k;
  };
  static constexpr Rung kLadder[] = {{99.99, 10000}, {99.9, 1000}, {99.0, 100},
                                     {95.0, 20},     {90.0, 10},   {75.0, 4}};
  for (const Rung& rung : kLadder) {
    if (rung.q <= cap && n >= kTailBeyond * rung.k) return rung.q;
  }
  return 50.0;
}

Summary summarize(std::vector<double> samples, double cap) {
  if (samples.empty()) throw std::invalid_argument("summarize: no samples");
  Summary summary;
  summary.n = samples.size();
  summary.tail_q = tail_percentile(summary.n, cap);
  summary.p50 = eotora::util::percentile(samples, 50.0);
  summary.tail = eotora::util::percentile(std::move(samples), summary.tail_q);
  return summary;
}

std::string describe(const Summary& summary) {
  std::ostringstream out;
  out << "p" << summary.tail_q << " of n=" << summary.n;
  return out.str();
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  return eotora::util::percentile(std::move(samples), 50.0);
}

double iqr(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("iqr: no samples");
  return eotora::util::percentile(samples, 75.0) -
         eotora::util::percentile(samples, 25.0);
}

}  // namespace perfbench
