#include "report.h"

#include <algorithm>
#include <stdexcept>

#include "stats.h"
#include "util/memory.h"

namespace perfbench {

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (name[0] == '_' || name[0] == '.' || name[0] == '-') return false;
  for (const char c : name) {
    if (!name_char(c)) return false;
  }
  return true;
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  for (const Metric& metric : items_) {
    if (metric.name == name) {
      throw std::invalid_argument("duplicate metric name '" + name + "'");
    }
  }
  items_.push_back(Metric{name, value, unit, note});
}

eotora::util::Json MetricSet::to_json() const {
  eotora::util::Json doc = eotora::util::Json::object();
  for (const Metric& metric : items_) {
    eotora::util::Json entry = eotora::util::Json::object();
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    doc[metric.name] = std::move(entry);
  }
  return doc;
}

eotora::util::Json result_json(bool correct, std::size_t attempted,
                               std::size_t failed, const MetricSet& metrics) {
  eotora::util::Json doc = eotora::util::Json::object();
  doc["correct"] = correct;
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["metrics"] = metrics.to_json();
  return doc;
}

void add_timing(MetricSet& metrics, const std::string& base,
                const std::vector<std::vector<double>>& repetitions,
                double tail_cap) {
  std::size_t shortest = repetitions.empty() ? 0 : repetitions.front().size();
  for (const auto& samples : repetitions) {
    shortest = std::min(shortest, samples.size());
  }
  if (shortest >= 4 * kTailBeyond) {
    std::vector<double> p50, tail;
    Summary last;
    for (const auto& samples : repetitions) {
      last = summarize(samples, tail_cap);
      p50.push_back(last.p50);
      tail.push_back(last.tail);
    }
    const std::string of =
        " of " + std::to_string(repetitions.size()) + " repetitions";
    metrics.add(base + "_p50_ms", median(p50) * 1e3, "ms",
                "median p50" + of + ", n=" + std::to_string(last.n) + " each");
    metrics.add(base + "_tail_ms", median(tail) * 1e3, "ms",
                "median " + describe(last) + of);
    return;
  }
  std::vector<double> pooled;
  for (const auto& samples : repetitions) {
    pooled.insert(pooled.end(), samples.begin(), samples.end());
  }
  const Summary summary = summarize(std::move(pooled), tail_cap);
  metrics.add(base + "_p50_ms", summary.p50 * 1e3, "ms",
              "n=" + std::to_string(summary.n));
  metrics.add(base + "_tail_ms", summary.tail * 1e3, "ms", describe(summary));
}

double peak_rss_mib() {
  return static_cast<double>(eotora::util::peak_rss_bytes()) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
