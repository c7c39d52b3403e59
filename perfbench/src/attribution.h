// In-memory span recording for the traced runs.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer: a name, start, end, the index of the span that caused it
// (-1 for a top-level span) and the id of the slot it belongs to. They stay
// in memory until the run ends and are then summarised (self time = span
// duration minus the part of it its children cover) and written out.
#pragma once
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // string literal
  double start_s = 0.0;   // seconds since the recorder's epoch
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t slot = 0;
};

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

// A [start, end) interval in recorder seconds.
using Window = std::pair<double, double>;

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch = Clock::now())
      : epoch_(epoch) {}

  [[nodiscard]] double seconds(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }
  [[nodiscard]] double now() const { return seconds(Clock::now()); }

  // Opens a span starting now; returns its index for end() and children.
  int begin(const char* name, std::uint64_t slot, int parent = -1);
  void end(int index) { spans_[static_cast<std::size_t>(index)].end_s = now(); }
  // Records a finished span.
  int add(const char* name, double start_s, double end_s, std::uint64_t slot,
          int parent = -1);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Durations (seconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  // Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  // Share of the summed `windows` that no top-level span covers.
  [[nodiscard]] double unattributed_fraction(
      const std::vector<Window>& windows) const;
  // {"spans": [[name, start_us, end_us, parent, slot], ...],
  //  "totals": {name: {count, total_ms, self_ms}}}
  [[nodiscard]] eotora::util::Json to_json() const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// RAII span on a recorder; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t slot,
             int parent = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->begin(name, slot, parent)
                                   : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int index_;
};

// Length of the union of `intervals` clipped to [from, to).
[[nodiscard]] double covered_length(std::vector<Window> intervals, double from,
                                    double to);

}  // namespace perfbench
