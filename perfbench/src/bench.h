// Shared types of the workload runners (batch.cpp, serve_churn.cpp).
#pragma once
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "attribution.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measurement budget of this run
  bool trace = false;     // false: end-to-end metrics; true: per-layer
};

struct RunOutput {
  MetricSet metrics;
  std::size_t attempted = 0;  // slots decided or due
  std::size_t failed = 0;     // slots that failed a correctness check
  std::vector<std::string> errors;
  SpanRecorder spans;  // traced runs only
  // host_scale() before every repetition (hostspeed.h).
  std::vector<double> host_scales;

  void fail(std::size_t slots, const std::string& why) {
    failed += slots;
    errors.push_back(why);
  }
};

// Paces a run in whole rounds over the workload's scenarios: at least
// `min_rounds`, then one more only while it should end nearer the budget of
// `seconds` than stopping now would.
class RoundClock {
 public:
  RoundClock(double seconds, std::size_t min_rounds)
      : seconds_(seconds), min_rounds_(min_rounds) {}
  // Call before each round; false once the run should stop.
  bool next() {
    const Clock::time_point now = Clock::now();
    if (rounds_ == 0) start_ = now;
    const double elapsed = std::chrono::duration<double>(now - start_).count();
    const double last =
        std::chrono::duration<double>(now - round_start_).count();
    if (rounds_ >= min_rounds_ && elapsed + 0.5 * last >= seconds_) {
      return false;
    }
    round_start_ = now;
    ++rounds_;
    return true;
  }
  [[nodiscard]] std::size_t round() const { return rounds_ - 1; }

 private:
  double seconds_;
  std::size_t min_rounds_;
  std::size_t rounds_ = 0;
  Clock::time_point start_;
  Clock::time_point round_start_;
};

[[nodiscard]] RunOutput run_batch(const BatchWorkload& workload,
                                  const RunOptions& options);
[[nodiscard]] RunOutput run_serve_churn(const ServeWorkload& workload,
                                        const RunOptions& options);

}  // namespace perfbench
