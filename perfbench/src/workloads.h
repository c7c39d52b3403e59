// The benchmark's workloads and the harness pieces they share.
//
//   paper-week   the paper's §VI-A scenario (100 devices, 6 BS, 16 servers),
//                dpp-bdma V=100 z=5 unsharded, a closed-loop drain of one
//                168-slot week per repetition.
//   metro-10k    10^4 devices on 64 metro districts, dpp-bdma sharded with
//                one worker, a closed-loop streaming drain (no prefetch).
//   serve-churn  the churn preset at 30 devices, recorded as a delta stream,
//                encoded into wire frames and released open-loop at a fixed
//                slot rate into a ServeLoop.
//
// Each workload covers several scenarios whose seeds derive from the one
// the benchmark is given (scenario_seeds), visited round-robin, so a run's
// figures describe the workload rather than one random topology. The
// library only ever sees the generated states or deltas.
#pragma once
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/counters.h"
#include "sim/delta.h"
#include "sim/policy.h"
#include "sim/policy_params.h"
#include "sim/state_source.h"

namespace perfbench {

inline constexpr const char* kPolicyName = "dpp-bdma";
// The decision rng seed (run_policy's and ServeOptions' default).
inline constexpr std::uint64_t kDecisionSeed = 1;

// `count` scenario seeds for benchmark seed `seed`: seed * count + k.
[[nodiscard]] std::vector<std::uint64_t> scenario_seeds(std::uint64_t seed,
                                                        std::size_t count);

struct BatchWorkload {
  std::string name;
  std::vector<eotora::sim::ScenarioConfig> scenarios;
  std::size_t horizon = 0;  // slots per repetition
  eotora::sim::PolicyParams params;
  // Highest percentile reported as a timing's tail, so the percentile does
  // not change with how many repetitions fit into a run.
  double tail_cap = 99.0;
};

[[nodiscard]] BatchWorkload paper_week(std::uint64_t seed);
[[nodiscard]] BatchWorkload metro_10k(std::uint64_t seed);

struct ServeWorkload {
  std::vector<eotora::sim::ScenarioConfig> scenarios;
  eotora::sim::PolicyParams params;
  std::size_t slots = 0;      // stream length per scenario
  double offered_rate = 0.0;  // slots per second of the fixed-rate run
  double tail_cap = 99.0;
};

[[nodiscard]] ServeWorkload serve_churn(std::uint64_t seed);

// One scenario's delta stream and its pre-encoded kDelta wire frames.
// Recording and encoding are harness preparation, outside every timing.
struct ServeStream {
  std::unique_ptr<eotora::sim::ScenarioSource> source;  // owns the instance
  std::vector<eotora::sim::SlotDelta> deltas;
  std::vector<std::vector<std::uint8_t>> frames;
};

[[nodiscard]] ServeStream record_stream(
    const eotora::sim::ScenarioConfig& scenario, std::size_t slots);

// The generated inputs of a workload as bytes: the first `slots` slot states
// (batch workloads) or wire frames (serve-churn) of every scenario.
// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] std::vector<std::uint8_t> workload_bytes(
    const std::string& workload, std::uint64_t seed, std::size_t slots);

// Bit-exact digest of everything one slot decided (assignment, frequencies,
// allocation, latency, cost, Θ, Q before/after, objective, P2-A effort).
[[nodiscard]] std::uint64_t fingerprint(
    const eotora::core::DppSlotResult& slot);

// Policy decorator used where the library, not the benchmark, drives the
// policy (ServeLoop::run, run_policy): times every step() on the calling
// thread, collects the solver counters of each step, and keeps the
// fingerprint of every decided slot.
class ObservedPolicy final : public eotora::sim::Policy {
 public:
  explicit ObservedPolicy(std::unique_ptr<eotora::sim::Policy> inner);
  eotora::core::DppSlotResult step(const eotora::core::SlotState& state,
                                   eotora::util::Rng& rng) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset() override;
  [[nodiscard]] std::vector<eotora::sim::pipeline::StageStats> stage_stats()
      const override {
    return inner_->stage_stats();
  }

  // Per-step wall seconds and [start, end) instants, in step order.
  [[nodiscard]] const std::vector<double>& step_seconds() const {
    return step_seconds_;
  }
  [[nodiscard]] const std::vector<std::chrono::steady_clock::time_point>&
  step_starts() const {
    return step_starts_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& digests() const {
    return digests_;
  }
  [[nodiscard]] const eotora::core::counters::SolverCounters& counters() const {
    return counters_;
  }

 private:
  std::unique_ptr<eotora::sim::Policy> inner_;
  std::vector<double> step_seconds_;
  std::vector<std::chrono::steady_clock::time_point> step_starts_;
  std::vector<std::uint64_t> digests_;
  eotora::core::counters::SolverCounters counters_;
};

}  // namespace perfbench
