#include "layers.h"

#include <algorithm>
#include <stdexcept>

#include "core/bdma.h"
#include "core/lemma1.h"
#include "sim/audit.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using eotora::core::DppSlotResult;
using eotora::core::SlotState;

// One dpp-bdma controller driven through the per-layer entry points.
class TracedDpp {
 public:
  TracedDpp(const eotora::core::Instance& instance,
            const eotora::sim::PolicyParams& params)
      : instance_(instance),
        config_(eotora::sim::dpp_config_from(
            params, eotora::core::P2aSolverKind::kCgba)),
        queue_(config_.initial_queue) {}

  DppSlotResult step(const SlotState& state, eotora::util::Rng& rng,
                     SpanRecorder& spans, std::uint64_t slot, int parent,
                     TraceTally& tally) {
    namespace core = eotora::core;
    DppSlotResult result;
    result.queue_before = queue_;
    const core::counters::Scope scope(tally.counters);
    {
      const ScopedSpan span(&spans, "bdma.begin", slot, parent);
      core::bdma_begin_slot(instance_, state, workspace_, loop_);
    }
    for (std::size_t iter = 0; iter < config_.bdma.iterations; ++iter) {
      {
        const ScopedSpan span(&spans, "bdma.p2a", slot, parent);
        const std::uint64_t moves = tally.counters.cgba_moves;
        core::bdma_p2a_iterate(instance_, state, config_.bdma, iter, rng,
                               workspace_, loop_);
        tally.iterations += 1;
        if (tally.counters.cgba_moves > moves) tally.useful_iterations += 1;
        tally.shard_components += loop_.p2a_shards;
      }
      const ScopedSpan span(&spans, "bdma.p2b", slot, parent);
      core::bdma_p2b_iterate(instance_, state, config_.v, queue_, config_.bdma,
                             workspace_, loop_);
    }
    {
      const ScopedSpan span(&spans, "bdma.finish", slot, parent);
      core::bdma_finish_slot(instance_, state, loop_);
    }
    const core::BdmaResult& best = loop_.best;
    {
      const ScopedSpan span(&spans, "lemma1", slot, parent);
      core::optimal_allocation(instance_, state, best.assignment, lemma1_,
                               result.decision.allocation);
    }
    result.decision.assignment = best.assignment;
    result.decision.frequencies = best.frequencies;
    result.latency = best.latency;
    result.theta = best.theta;
    result.energy_cost = best.theta + instance_.budget_per_slot();
    result.objective = best.objective;
    result.p2a_iterations = best.p2a_iterations;
    {
      const ScopedSpan span(&spans, "queue", slot, parent);
      queue_ = std::max(queue_ + result.theta, 0.0);  // Eq. (21)
      result.queue_after = queue_;
    }
    return result;
  }

 private:
  const eotora::core::Instance& instance_;
  eotora::core::DppConfig config_;
  double queue_;
  eotora::core::BdmaWorkspace workspace_;
  eotora::core::BdmaLoopState loop_;
  eotora::core::Lemma1Workspace lemma1_;
};

double total(const SpanRecorder& spans, const std::string& name) {
  double sum = 0.0;
  for (const double d : spans.durations(name)) sum += d;
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void TraceTally::merge(const TraceTally& other) {
  drains += other.drains;
  slots += other.slots;
  iterations += other.iterations;
  useful_iterations += other.useful_iterations;
  shard_components += other.shard_components;
  counters.merge(other.counters);
  audit_failed += other.audit_failed;
  mismatched += other.mismatched;
}

void traced_drain(const eotora::core::Instance& instance,
                  eotora::sim::StateSource& source,
                  const eotora::sim::PolicyParams& params,
                  const std::vector<std::uint64_t>& reference,
                  SpanRecorder& spans, std::uint64_t slot_base,
                  TraceTally& tally) {
  TracedDpp dpp(instance, params);
  eotora::util::Rng rng(kDecisionSeed);
  SlotState state;
  tally.drains += 1;
  const std::size_t slots = source.size_hint();
  for (std::size_t t = 0; t < slots; ++t) {
    const std::uint64_t id = slot_base + t;
    const int root = spans.begin("slot", id);
    {
      const ScopedSpan span(&spans, "state.next", id, root);
      if (!source.next(state)) {
        throw std::runtime_error("state source ended before its size hint");
      }
    }
    const DppSlotResult slot = dpp.step(state, rng, spans, id, root, tally);
    bool clean = false;
    {
      const ScopedSpan span(&spans, "audit", id, root);
      clean = eotora::sim::audit_slot(instance, state, slot).clean();
    }
    {
      const ScopedSpan span(&spans, "bookkeep", id, root);
      tally.slots += 1;
      if (!clean) tally.audit_failed += 1;
      if (t >= reference.size() || fingerprint(slot) != reference[t]) {
        tally.mismatched += 1;
      }
    }
    spans.end(root);
  }
}

void fill_traced_layers(const TraceTally& tally, const SpanRecorder& spans,
                        LayerMetrics& layers) {
  const double slots = static_cast<double>(tally.slots);
  const auto& c = tally.counters;
  const std::vector<double> state_next = spans.durations("state.next");
  if (!state_next.empty()) {
    layers.state_next_p50_ms = median(state_next) * 1e3;
  }
  const double state_total = total(spans, "state.next");
  layers.state_next_total_s = ratio(state_total, tally.drains);
  layers.state_share = ratio(state_total, total(spans, "slot"));
  layers.bdma_begin_ms = ratio(total(spans, "bdma.begin"), slots) * 1e3;
  layers.bdma_p2a_ms = ratio(total(spans, "bdma.p2a"), slots) * 1e3;
  layers.bdma_p2b_ms = ratio(total(spans, "bdma.p2b"), slots) * 1e3;
  layers.bdma_finish_ms = ratio(total(spans, "bdma.finish"), slots) * 1e3;
  layers.bdma_iterations = ratio(tally.iterations, slots);
  layers.bdma_useful_iter_ratio =
      ratio(tally.useful_iterations, tally.iterations);
  layers.cgba_rounds = ratio(c.cgba_rounds, slots);
  layers.cgba_moves = ratio(c.cgba_moves, slots);
  layers.cgba_move_ratio = ratio(c.cgba_moves, c.cgba_rounds);
  layers.engine_rebuilds = ratio(c.engine_rebuilds, slots);
  layers.engine_term_refreshes = ratio(c.engine_term_refreshes, slots);
  layers.engine_refreshes_per_move =
      ratio(c.engine_term_refreshes, c.cgba_moves);
  layers.shard_components = ratio(tally.shard_components, tally.iterations);
  layers.component_finds = ratio(c.component_finds, slots);
  layers.component_reuses = ratio(c.component_reuses, slots);
  layers.arena_precomputes = ratio(c.arena_precomputes, slots);
  layers.arena_precompute_reuses = ratio(c.arena_precompute_reuses, slots);
  layers.lemma1_ms = ratio(total(spans, "lemma1"), slots) * 1e3;
  layers.lemma1_evaluations = ratio(c.lemma1_evaluations, slots);
  layers.audit_slot_ms = ratio(total(spans, "audit"), slots) * 1e3;
}

void add_layer_metrics(const LayerMetrics& l, MetricSet& m) {
  m.add("setup.scenario_s", l.setup_scenario_s, "s");
  m.add("setup.policy_s", l.setup_policy_s, "s");
  m.add("state.next_p50_ms", l.state_next_p50_ms, "ms");
  m.add("state.next_total_s", l.state_next_total_s, "s", "per repetition");
  m.add("state.share", l.state_share, "ratio", "of traced slot time");
  m.add("pipeline.p2a_solve_s", l.pipeline_p2a_solve_s, "s", "per repetition");
  m.add("pipeline.p2b_solve_s", l.pipeline_p2b_solve_s, "s", "per repetition");
  m.add("pipeline.decision_out_s", l.pipeline_decision_out_s, "s",
        "per repetition");
  m.add("pipeline.other_s", l.pipeline_other_s, "s", "per repetition");
  m.add("bdma.begin_ms", l.bdma_begin_ms, "ms", "per slot");
  m.add("bdma.p2a_ms", l.bdma_p2a_ms, "ms", "per slot");
  m.add("bdma.p2b_ms", l.bdma_p2b_ms, "ms", "per slot");
  m.add("bdma.finish_ms", l.bdma_finish_ms, "ms", "per slot");
  m.add("bdma.iterations", l.bdma_iterations, "count", "per slot");
  m.add("bdma.useful_iter_ratio", l.bdma_useful_iter_ratio, "ratio");
  m.add("cgba.rounds", l.cgba_rounds, "count", "per slot");
  m.add("cgba.moves", l.cgba_moves, "count", "per slot");
  m.add("cgba.move_ratio", l.cgba_move_ratio, "ratio");
  m.add("engine.rebuilds", l.engine_rebuilds, "count", "per slot");
  m.add("engine.term_refreshes", l.engine_term_refreshes, "count", "per slot");
  m.add("engine.refreshes_per_move", l.engine_refreshes_per_move, "ratio");
  m.add("shard.components", l.shard_components, "count", "per P2-A solve");
  m.add("component.finds", l.component_finds, "count", "per slot");
  m.add("component.reuses", l.component_reuses, "count", "per slot");
  m.add("arena.precomputes", l.arena_precomputes, "count", "per slot");
  m.add("arena.precompute_reuses", l.arena_precompute_reuses, "count",
        "per slot");
  m.add("lemma1.ms", l.lemma1_ms, "ms", "per slot");
  m.add("lemma1.evaluations", l.lemma1_evaluations, "count", "per slot");
  m.add("delta.apply_us", l.delta_apply_us, "us", "p50");
  m.add("serve.codec_us", l.serve_codec_us, "us", "p50");
  m.add("serve.submit_us", l.serve_submit_us, "us", "p50");
  m.add("serve.decide_p50_ms", l.serve_decide_p50_ms, "ms", "ServeMetrics");
  m.add("serve.wait_tail_ms", l.serve_wait_tail_ms, "ms");
  m.add("serve.ring_depth_max", l.serve_ring_depth_max, "count");
  m.add("loadgen.lag_tail_ms", l.loadgen_lag_tail_ms, "ms");
  m.add("audit.slot_ms", l.audit_slot_ms, "ms", "per slot");
  m.add("host.ref_us", l.host_ref_us, "us", "reference kernel, median");
  m.add("trace.overhead_frac", l.trace_overhead_frac, "ratio",
        "median over interleaved pairs");
  m.add("trace.overhead_iqr", l.trace_overhead_iqr, "ratio");
  m.add("unattributed_frac", l.unattributed_frac, "ratio");
}

}  // namespace perfbench
