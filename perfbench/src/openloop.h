// Open-loop slot schedule: slot k is due at start + k / rate, whether or not
// the system has finished the slots before it.
//
// Latency is counted from when a slot was DUE, not from when the generator
// got round to releasing it, so a stall in the consumer (or a blocked
// release) is charged to every slot queued behind it. How late the
// generator released each slot is reported separately as its lag.
#pragma once
#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "attribution.h"

namespace perfbench {

class OpenLoop {
 public:
  // `rate` slots per second, `slots` slots in total.
  OpenLoop(double rate, std::size_t slots);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  // Producer side, on the calling thread: for every slot, waits until it is
  // due, then calls release(k). A release that blocks delays the later
  // releases but not their due times.
  void run(const std::function<void(std::size_t)>& release);
  // Consumer side, from any one thread: slot k has finished.
  void complete(std::size_t k);

  // Read these after the producer returned and the consumer was joined.
  [[nodiscard]] std::size_t slots() const { return due_.size(); }
  [[nodiscard]] std::size_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] Clock::time_point start() const { return start_; }
  [[nodiscard]] Clock::time_point due(std::size_t k) const { return due_[k]; }
  [[nodiscard]] Clock::time_point released(std::size_t k) const {
    return released_[k];
  }
  [[nodiscard]] bool done(std::size_t k) const { return done_flag_[k] != 0; }
  [[nodiscard]] Clock::time_point done_at(std::size_t k) const {
    return done_[k];
  }
  // Seconds from due to completion; +infinity for a slot never completed.
  [[nodiscard]] double latency_s(std::size_t k) const;
  // Seconds the generator released slot k after it was due.
  [[nodiscard]] double lag_s(std::size_t k) const;

 private:
  double rate_;
  Clock::time_point start_;
  std::vector<Clock::time_point> due_;
  std::vector<Clock::time_point> released_;
  // Written by the consumer only; done_flag_ guards done_.
  std::vector<Clock::time_point> done_;
  std::vector<char> done_flag_;
  std::atomic<std::size_t> completed_{0};
};

}  // namespace perfbench
