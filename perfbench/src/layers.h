// Per-layer measurement: the traced DPP path and the per-layer metric set.
//
// TracedDpp re-runs dpp-bdma's slot through the library's per-layer entry
// points — bdma_begin_slot, one bdma_p2a_iterate / bdma_p2b_iterate per
// BDMA iteration, bdma_finish_slot, optimal_allocation and the Eq. (21)
// queue update — with the config sim::dpp_config_from builds for the
// registry and the same rng stream, so its decisions must equal
// Policy::step bit for bit. traced_drain wraps each call in a span and
// checks every slot against a reference fingerprint.
#pragma once
#include <cstddef>
#include <cstdint>
#include <vector>

#include "attribution.h"
#include "core/counters.h"
#include "core/instance.h"
#include "report.h"
#include "sim/policy_params.h"
#include "sim/state_source.h"

namespace perfbench {

// What the traced path counted, summed over every traced drain of a run.
struct TraceTally {
  std::size_t drains = 0;
  std::size_t slots = 0;
  std::size_t iterations = 0;         // BDMA iterations
  std::size_t useful_iterations = 0;  // iterations whose P2-A moved a device
  std::size_t shard_components = 0;   // summed over P2-A solves
  eotora::core::counters::SolverCounters counters;  // decision path only
  std::size_t audit_failed = 0;       // slots with audit violations
  std::size_t mismatched = 0;         // slots differing from the reference

  void merge(const TraceTally& other);
};

// Drains the size_hint() slots of a rewound `source` through the per-layer
// entry points (a fresh controller: Q(1) from `params`, rng seeded with
// kDecisionSeed). Per slot it records a root `slot` span (id slot_base + t)
// with children state.next, bdma.begin, bdma.p2a / bdma.p2b per iteration,
// bdma.finish, lemma1, queue, audit (sim::audit_slot) and bookkeep, and
// compares the slot's fingerprint with reference[t].
void traced_drain(const eotora::core::Instance& instance,
                  eotora::sim::StateSource& source,
                  const eotora::sim::PolicyParams& params,
                  const std::vector<std::uint64_t>& reference,
                  SpanRecorder& spans, std::uint64_t slot_base,
                  TraceTally& tally);

// Every per-layer metric, in report order. Layers a workload does not
// exercise stay 0.
struct LayerMetrics {
  double setup_scenario_s = 0.0;
  double setup_policy_s = 0.0;
  double state_next_p50_ms = 0.0;
  double state_next_total_s = 0.0;  // per repetition
  double state_share = 0.0;         // of traced slot time
  double pipeline_p2a_solve_s = 0.0;  // program-reported, per repetition
  double pipeline_p2b_solve_s = 0.0;
  double pipeline_decision_out_s = 0.0;
  double pipeline_other_s = 0.0;
  double bdma_begin_ms = 0.0;  // per slot
  double bdma_p2a_ms = 0.0;
  double bdma_p2b_ms = 0.0;
  double bdma_finish_ms = 0.0;
  double bdma_iterations = 0.0;
  double bdma_useful_iter_ratio = 0.0;
  double cgba_rounds = 0.0;  // counters are per slot
  double cgba_moves = 0.0;
  double cgba_move_ratio = 0.0;
  double engine_rebuilds = 0.0;
  double engine_term_refreshes = 0.0;
  double engine_refreshes_per_move = 0.0;
  double shard_components = 0.0;  // per P2-A solve
  double component_finds = 0.0;
  double component_reuses = 0.0;
  double arena_precomputes = 0.0;
  double arena_precompute_reuses = 0.0;
  double lemma1_ms = 0.0;
  double lemma1_evaluations = 0.0;
  double delta_apply_us = 0.0;
  double serve_codec_us = 0.0;
  double serve_submit_us = 0.0;
  double serve_decide_p50_ms = 0.0;
  double serve_wait_tail_ms = 0.0;
  double serve_ring_depth_max = 0.0;
  double loadgen_lag_tail_ms = 0.0;
  double audit_slot_ms = 0.0;
  double host_ref_us = 0.0;  // reference kernel, median (hostspeed.h)
  double trace_overhead_frac = 0.0;
  double trace_overhead_iqr = 0.0;
  double unattributed_frac = 0.0;
};

// Fills the trace-derived fields (state.*, bdma.*, counters, lemma1.*,
// audit.*) from the tally and the recorded spans.
void fill_traced_layers(const TraceTally& tally, const SpanRecorder& spans,
                        LayerMetrics& layers);

// Adds every per-layer metric to `metrics`.
void add_layer_metrics(const LayerMetrics& layers, MetricSet& metrics);

// The largest share of traced wall time allowed outside every top-level span.
inline constexpr double kMaxUnattributed = 0.05;

}  // namespace perfbench
