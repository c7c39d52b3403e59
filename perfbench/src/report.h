// Named metrics and the benchmark's result line.
//
// Every figure the benchmark prints goes through MetricSet, which enforces
// the naming rule later tooling relies on: 1-64 characters from
// [A-Za-z0-9_.-], starting with a letter or digit, unique within a run.
#pragma once
#include <cstddef>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

[[nodiscard]] bool valid_metric_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count / percentile label, printed only
};

class MetricSet {
 public:
  // Throws std::invalid_argument for an invalid or repeated name.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }
  // {"<name>": {"value": v, "unit": u}, ...} in insertion order.
  [[nodiscard]] eotora::util::Json to_json() const;

 private:
  std::vector<Metric> items_;
};

// The single-line result object: correct, attempted, failed, metrics.
[[nodiscard]] eotora::util::Json result_json(bool correct,
                                             std::size_t attempted,
                                             std::size_t failed,
                                             const MetricSet& metrics);

// Adds `<base>_p50_ms` / `<base>_tail_ms` from per-repetition samples in
// seconds. When every repetition alone supports a tail (at least 40
// samples: p75 with ten beyond), each is summarised on its own and the
// medians over repetitions are reported, so a host stall spoils only the
// repetitions it hit instead of becoming the run's pooled tail; shorter
// repetitions are pooled. The tail is the highest percentile, at most
// `tail_cap`, with ten samples beyond it.
void add_timing(MetricSet& metrics, const std::string& base,
                const std::vector<std::vector<double>>& repetitions,
                double tail_cap);

// Peak RSS since the last util::reset_peak_rss(), in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
