#include "attribution.h"

#include <algorithm>

namespace perfbench {

int SpanRecorder::begin(const char* name, std::uint64_t slot, int parent) {
  const double t = now();
  return add(name, t, t, slot, parent);
}

int SpanRecorder::add(const char* name, double start_s, double end_s,
                      std::uint64_t slot, int parent) {
  spans_.push_back(Span{name, start_s, end_s, parent, slot});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

double covered_length(std::vector<Window> intervals, double from, double to) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = from;
  for (const auto& [start, end] : intervals) {
    const double lo = std::max(start, reach);
    const double hi = std::min(end, to);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::vector<std::vector<Window>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_s, span.end_s);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = span.end_s - span.start_s;
    SpanTotals& totals = out[span.name];
    totals.count += 1;
    totals.total_s += duration;
    totals.self_s += duration - covered_length(std::move(children[i]),
                                               span.start_s, span.end_s);
  }
  return out;
}

double SpanRecorder::unattributed_fraction(
    const std::vector<Window>& windows) const {
  std::vector<Window> top;
  for (const Span& span : spans_) {
    if (span.parent < 0) top.emplace_back(span.start_s, span.end_s);
  }
  double wall = 0.0;
  double covered = 0.0;
  for (const auto& [from, to] : windows) {
    wall += to - from;
    covered += covered_length(top, from, to);
  }
  return wall > 0.0 ? 1.0 - covered / wall : 0.0;
}

eotora::util::Json SpanRecorder::to_json() const {
  using eotora::util::Json;
  Json spans = Json::array();
  for (const Span& span : spans_) {
    Json row = Json::array();
    row.push_back(span.name);
    row.push_back(span.start_s * 1e6);
    row.push_back(span.end_s * 1e6);
    row.push_back(span.parent);
    row.push_back(span.slot);
    spans.push_back(std::move(row));
  }
  Json totals = Json::object();
  for (const auto& [name, t] : this->totals()) {
    Json entry = Json::object();
    entry["count"] = t.count;
    entry["total_ms"] = t.total_s * 1e3;
    entry["self_ms"] = t.self_s * 1e3;
    totals[name] = std::move(entry);
  }
  Json doc = Json::object();
  doc["span_fields"] = "[name, start_us, end_us, parent, slot]";
  doc["spans"] = std::move(spans);
  doc["totals"] = std::move(totals);
  return doc;
}

}  // namespace perfbench
