#include "workloads.h"

#include <cstring>
#include <stdexcept>

#include "serve/codec.h"
#include "sim/scenario_registry.h"

namespace perfbench {

using eotora::core::DppSlotResult;
using eotora::core::SlotState;

std::vector<std::uint64_t> scenario_seeds(std::uint64_t seed,
                                          std::size_t count) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 0; k < count; ++k) seeds.push_back(seed * count + k);
  return seeds;
}

BatchWorkload paper_week(std::uint64_t seed) {
  BatchWorkload w;
  w.name = "paper-week";
  for (const std::uint64_t s : scenario_seeds(seed, 16)) {
    eotora::sim::ScenarioConfig scenario;  // the §VI-A defaults
    scenario.seed = s;
    w.scenarios.push_back(scenario);
  }
  w.horizon = 168;  // one week of hourly slots
  w.params.v = 100.0;
  w.params.bdma_iterations = 5;
  w.tail_cap = 99.0;
  return w;
}

BatchWorkload metro_10k(std::uint64_t seed) {
  BatchWorkload w;
  w.name = "metro-10k";
  for (const std::uint64_t s : scenario_seeds(seed, 12)) {
    eotora::sim::ScenarioConfig scenario;
    scenario.seed = s;
    scenario.devices = 10000;
    scenario.metro_districts = 64;
    w.scenarios.push_back(scenario);
  }
  w.horizon = 3;
  w.params.v = 100.0;
  w.params.bdma_iterations = 5;
  // One worker: the sharded plan / solve / merge path runs on the calling
  // thread. With a pool worker per vCPU, each parallel section waited on
  // cross-vCPU wake-ups, and decide p50 doubled in host-busy phases that
  // left single-threaded code untouched.
  w.params.shard_workers = 1;
  w.tail_cap = 75.0;
  return w;
}

ServeWorkload serve_churn(std::uint64_t seed) {
  ServeWorkload w;
  for (const std::uint64_t s : scenario_seeds(seed, 16)) {
    eotora::sim::ScenarioConfig scenario;
    scenario.seed = s;
    scenario.devices = 30;
    eotora::sim::apply_scenario_preset("churn", scenario);
    w.scenarios.push_back(scenario);
  }
  w.params.v = 100.0;
  w.params.bdma_iterations = 5;
  w.slots = 250;
  w.offered_rate = 1000.0;
  // p90 of 250: a repetition's tail then moves only when 25 of its slots
  // do, not when a single host stall of a few ms delays the 13 queued
  // behind it.
  w.tail_cap = 90.0;
  return w;
}

ServeStream record_stream(const eotora::sim::ScenarioConfig& scenario,
                          std::size_t slots) {
  ServeStream stream;
  stream.source =
      std::make_unique<eotora::sim::ScenarioSource>(scenario, slots);
  stream.deltas = eotora::sim::record_deltas(*stream.source);
  stream.frames.reserve(stream.deltas.size());
  for (const eotora::sim::SlotDelta& delta : stream.deltas) {
    stream.frames.push_back(eotora::serve::encode_frame(
        eotora::serve::FrameType::kDelta, eotora::serve::encode_delta(delta)));
  }
  return stream;
}

namespace {

void append_bits(std::vector<std::uint8_t>& out, double value) {
  std::uint8_t bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  out.insert(out.end(), bytes, bytes + sizeof(double));
}

void append_state(std::vector<std::uint8_t>& out, const SlotState& state) {
  for (const double f : state.task_cycles) append_bits(out, f);
  for (const double d : state.data_bits) append_bits(out, d);
  for (const auto& row : state.channel) {
    for (const double h : row) append_bits(out, h);
  }
  append_bits(out, state.price_per_mwh);
}

struct Fnv1a {
  std::uint64_t hash = 14695981039346656037ull;
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void values(const std::vector<T>& vs) {
    value(vs.size());
    if (!vs.empty()) bytes(vs.data(), vs.size() * sizeof(T));
  }
};

}  // namespace

std::vector<std::uint8_t> workload_bytes(const std::string& workload,
                                         std::uint64_t seed,
                                         std::size_t slots) {
  std::vector<std::uint8_t> out;
  if (workload == "serve-churn") {
    for (const auto& scenario : serve_churn(seed).scenarios) {
      for (const auto& frame : record_stream(scenario, slots).frames) {
        out.insert(out.end(), frame.begin(), frame.end());
      }
    }
    return out;
  }
  BatchWorkload w;
  if (workload == "paper-week") {
    w = paper_week(seed);
  } else if (workload == "metro-10k") {
    w = metro_10k(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  SlotState state;
  for (const auto& scenario : w.scenarios) {
    eotora::sim::ScenarioSource source(scenario, slots);
    while (source.next(state)) append_state(out, state);
  }
  return out;
}

std::uint64_t fingerprint(const DppSlotResult& slot) {
  Fnv1a h;
  h.values(slot.decision.assignment.bs_of);
  h.values(slot.decision.assignment.server_of);
  h.values(slot.decision.frequencies);
  h.values(slot.decision.allocation.phi);
  h.values(slot.decision.allocation.psi_access);
  h.values(slot.decision.allocation.psi_fronthaul);
  h.value(slot.latency);
  h.value(slot.energy_cost);
  h.value(slot.theta);
  h.value(slot.queue_before);
  h.value(slot.queue_after);
  h.value(slot.objective);
  h.value(slot.p2a_iterations);
  return h.hash;
}

ObservedPolicy::ObservedPolicy(std::unique_ptr<eotora::sim::Policy> inner)
    : inner_(std::move(inner)) {
  if (inner_ == nullptr) throw std::invalid_argument("ObservedPolicy: null");
}

DppSlotResult ObservedPolicy::step(const SlotState& state,
                                   eotora::util::Rng& rng) {
  DppSlotResult slot;
  const auto start = std::chrono::steady_clock::now();
  {
    const eotora::core::counters::Scope scope(counters_);
    slot = inner_->step(state, rng);
  }
  const auto end = std::chrono::steady_clock::now();
  step_starts_.push_back(start);
  step_seconds_.push_back(std::chrono::duration<double>(end - start).count());
  digests_.push_back(fingerprint(slot));
  return slot;
}

void ObservedPolicy::reset() {
  inner_->reset();
  step_seconds_.clear();
  step_starts_.clear();
  digests_.clear();
  counters_.reset();
}

}  // namespace perfbench
