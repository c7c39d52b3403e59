#include "openloop.h"

#include <limits>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

// Sleep until shortly before `until`, then yield the last stretch. The
// stretch covers a whole period at the rates the benchmark offers: a
// sleeping thread on a virtual machine can wake milliseconds late, which
// would show up as generator lag.
void wait_until(Clock::time_point until) {
  constexpr auto kSpin = std::chrono::milliseconds(2);
  if (Clock::now() < until - kSpin) {
    std::this_thread::sleep_until(until - kSpin);
  }
  while (Clock::now() < until) std::this_thread::yield();
}

}  // namespace

OpenLoop::OpenLoop(double rate, std::size_t slots)
    : rate_(rate),
      due_(slots),
      released_(slots),
      done_(slots),
      done_flag_(slots, 0) {
  if (!(rate > 0.0)) throw std::invalid_argument("open loop: rate must be > 0");
}

void OpenLoop::run(const std::function<void(std::size_t)>& release) {
  start_ = Clock::now();
  const std::chrono::duration<double> period(1.0 / rate_);
  for (std::size_t k = 0; k < due_.size(); ++k) {
    due_[k] = start_ + std::chrono::duration_cast<Clock::duration>(
                           period * static_cast<double>(k));
  }
  for (std::size_t k = 0; k < due_.size(); ++k) {
    wait_until(due_[k]);
    released_[k] = Clock::now();
    release(k);
  }
}

void OpenLoop::complete(std::size_t k) {
  done_[k] = Clock::now();
  done_flag_[k] = 1;
  completed_.fetch_add(1, std::memory_order_release);
}

double OpenLoop::latency_s(std::size_t k) const {
  if (done_flag_[k] == 0) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(done_[k] - due_[k]).count();
}

double OpenLoop::lag_s(std::size_t k) const {
  return std::chrono::duration<double>(released_[k] - due_[k]).count();
}

}  // namespace perfbench
