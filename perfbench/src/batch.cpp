// Batch workloads (paper-week, metro-10k): closed-loop drains of a
// ScenarioSource through dpp-bdma, one repetition per scenario per round.
//
// Untraced repetitions time the public entry points from outside:
// ScenarioSource construction and make_policy (set-up), then per slot
// StateSource::next and Policy::step. Traced repetitions re-run the same
// scenario through the per-layer entry points (layers.h) with a span around
// each call; every traced slot must equal the untraced one bit for bit.
// The run is pinned to one CPU, and untraced timings are scaled to the
// reference host speed (hostspeed.h) measured there before each repetition.
#include <memory>

#include "bench.h"
#include "hostspeed.h"
#include "layers.h"
#include "sim/audit.h"
#include "sim/registry.h"
#include "stats.h"
#include "util/memory.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using eotora::core::DppSlotResult;
using eotora::core::SlotState;
using eotora::core::counters::SolverCounters;

struct Repetition {
  double scale = 1.0;  // host_scale() just before the repetition
  double setup_s = 0.0;
  double setup_scenario_s = 0.0;
  double setup_policy_s = 0.0;
  double wall_s = 0.0;   // set-up + drain + teardown
  double drain_s = 0.0;  // the drain, audit excluded
  std::vector<double> decide_s, slot_s;
  std::vector<std::uint64_t> digests;
  double peak_rss_mib = 0.0;
  double avg_latency = 0.0;
  double cost_over_budget = 0.0;
  SolverCounters counters;
  std::vector<eotora::sim::pipeline::StageStats> stages;
  std::size_t audit_failed = 0;
};

// One untraced repetition of `scenario`: set-up, then `horizon` slots of
// next() + step(), every slot audited outside the timings. Its timings are
// raw; `scale` converts them to the reference host speed.
Repetition untraced_repetition(const BatchWorkload& w,
                               const eotora::sim::ScenarioConfig& scenario) {
  Repetition rep;
  rep.scale = host_scale(-1);
  eotora::util::reset_peak_rss();
  eotora::util::Timer wall;
  eotora::util::Timer timer;
  auto source =
      std::make_unique<eotora::sim::ScenarioSource>(scenario, w.horizon);
  rep.setup_scenario_s = timer.elapsed_seconds();
  timer.reset();
  std::unique_ptr<eotora::sim::Policy> policy =
      eotora::sim::make_policy(kPolicyName, source->instance(), w.params);
  rep.setup_policy_s = timer.elapsed_seconds();
  rep.setup_s = wall.elapsed_seconds();

  const eotora::core::Instance& instance = source->instance();
  eotora::sim::SlotAuditor auditor(instance);
  eotora::util::Rng rng(kDecisionSeed);
  SlotState state;
  DppSlotResult slot;
  rep.decide_s.reserve(w.horizon);
  rep.slot_s.reserve(w.horizon);
  rep.digests.reserve(w.horizon);
  double latency_sum = 0.0;
  double cost_sum = 0.0;
  double audit_s = 0.0;
  const Clock::time_point drain_start = Clock::now();
  for (;;) {
    const Clock::time_point a = Clock::now();
    if (!source->next(state)) break;
    const Clock::time_point b = Clock::now();
    {
      const eotora::core::counters::Scope scope(rep.counters);
      slot = policy->step(state, rng);
    }
    const Clock::time_point c = Clock::now();
    rep.decide_s.push_back(std::chrono::duration<double>(c - b).count());
    rep.slot_s.push_back(std::chrono::duration<double>(c - a).count());
    rep.digests.push_back(fingerprint(slot));
    latency_sum += slot.latency;
    cost_sum += slot.energy_cost;
    timer.reset();
    auditor.observe(state, slot);
    audit_s += timer.elapsed_seconds();
  }
  rep.drain_s =
      std::chrono::duration<double>(Clock::now() - drain_start).count() -
      audit_s;
  const double n = static_cast<double>(rep.digests.size());
  rep.avg_latency = latency_sum / n;
  rep.cost_over_budget = cost_sum / n / instance.budget_per_slot();
  rep.stages = policy->stage_stats();
  rep.audit_failed = auditor.report().slots_with_violations;
  rep.peak_rss_mib = peak_rss_mib();
  policy.reset();
  source.reset();
  rep.wall_s = wall.elapsed_seconds();
  return rep;
}

// Checks a repetition against the first one of the same scenario; every
// mismatching slot counts as failed.
void check_against(const Repetition& first, const Repetition& rep,
                   RunOutput& out) {
  std::size_t mismatched = 0;
  for (std::size_t t = 0; t < rep.digests.size(); ++t) {
    if (t >= first.digests.size() || rep.digests[t] != first.digests[t]) {
      ++mismatched;
    }
  }
  if (mismatched > 0) {
    out.fail(mismatched, "decisions differ between repetitions");
  } else if (rep.digests.size() != first.digests.size() ||
             rep.counters != first.counters ||
             rep.avg_latency != first.avg_latency ||
             rep.cost_over_budget != first.cost_over_budget) {
    out.fail(1, "deterministic fields differ between repetitions");
  }
}

// One traced repetition of `scenario`: the same set-up and drain through
// the per-layer entry points, checked against the untraced `reference`.
// Returns the repetition's wall seconds.
double traced_repetition(const BatchWorkload& w,
                         const eotora::sim::ScenarioConfig& scenario,
                         const Repetition& reference, std::uint64_t slot_base,
                         RunOutput& out, TraceTally& tally,
                         std::vector<Window>& windows) {
  SpanRecorder& spans = out.spans;
  const double start = spans.now();
  std::unique_ptr<eotora::sim::ScenarioSource> source;
  {
    const ScopedSpan setup(&spans, "setup", slot_base);
    const ScopedSpan make(&spans, "setup.scenario", slot_base, setup.index());
    source = std::make_unique<eotora::sim::ScenarioSource>(scenario, w.horizon);
  }
  TraceTally drain;
  traced_drain(source->instance(), *source, w.params, reference.digests, spans,
               slot_base, drain);
  {
    const ScopedSpan teardown(&spans, "teardown", slot_base);
    source.reset();
  }
  const double end = spans.now();
  windows.emplace_back(start, end);
  out.attempted += drain.slots;
  if (drain.audit_failed > 0) {
    out.fail(drain.audit_failed, "audit violations in a traced repetition");
  }
  if (drain.mismatched > 0) {
    out.fail(drain.mismatched,
             "traced path decisions differ from Policy::step");
  } else if (drain.counters != reference.counters) {
    out.fail(1, "traced path counters differ from Policy::step");
  }
  tally.merge(drain);
  return end - start;
}

double stage_seconds(const std::vector<eotora::sim::pipeline::StageStats>& s,
                     const std::string& name) {
  for (const auto& stage : s) {
    if (stage.name == name) return stage.seconds;
  }
  return 0.0;
}

std::vector<double> scaled(std::vector<double> seconds, double scale) {
  for (double& s : seconds) s *= scale;
  return seconds;
}

void add_end_to_end(const BatchWorkload& w, const std::vector<Repetition>& reps,
                    const std::vector<Repetition>& firsts, RunOutput& out) {
  std::vector<double> setup, rss;
  std::vector<std::vector<double>> decide, slot;
  double slots = 0.0;
  double drain = 0.0;
  for (const Repetition& rep : reps) {
    setup.push_back(rep.setup_s * rep.scale);
    rss.push_back(rep.peak_rss_mib);
    decide.push_back(scaled(rep.decide_s, rep.scale));
    slot.push_back(scaled(rep.slot_s, rep.scale));
    slots += static_cast<double>(rep.digests.size());
    drain += rep.drain_s * rep.scale;
  }
  double latency = 0.0;
  double cost = 0.0;
  for (const Repetition& first : firsts) {
    latency += first.avg_latency / static_cast<double>(firsts.size());
    cost += first.cost_over_budget / static_cast<double>(firsts.size());
  }
  MetricSet& m = out.metrics;
  m.add("setup_s", median(setup), "s",
        "median of n=" + std::to_string(setup.size()));
  const double throughput = slots / drain;
  m.add("slots_per_s", throughput, "1/s", "closed-loop drain");
  add_timing(m, "decide", decide, w.tail_cap);
  add_timing(m, "slot_latency", slot, w.tail_cap);
  m.add("sustained_rate_slots_per_s", throughput, "1/s",
        "a closed loop runs saturated: equals slots_per_s");
  m.add("avg_task_latency_s", latency, "s",
        "mean over " + std::to_string(firsts.size()) + " scenarios");
  m.add("cost_over_budget", cost, "ratio");
  m.add("peak_rss_mib", median(rss), "MiB", "median over repetitions");
}

void add_layers(const std::vector<Repetition>& reps, const TraceTally& tally,
                const std::vector<double>& overhead,
                const std::vector<Window>& windows, RunOutput& out) {
  LayerMetrics layers;
  std::vector<double> scenario, policy, p2a, p2b, decision_out, other;
  for (const Repetition& rep : reps) {
    scenario.push_back(rep.setup_scenario_s);
    policy.push_back(rep.setup_policy_s);
    double decide = 0.0;
    for (const double s : rep.decide_s) decide += s;
    p2a.push_back(stage_seconds(rep.stages, "p2a_solve"));
    p2b.push_back(stage_seconds(rep.stages, "p2b_solve"));
    decision_out.push_back(stage_seconds(rep.stages, "decision_out"));
    other.push_back(decide - p2a.back() - p2b.back() - decision_out.back());
  }
  layers.setup_scenario_s = median(scenario);
  layers.setup_policy_s = median(policy);
  layers.pipeline_p2a_solve_s = median(p2a);
  layers.pipeline_p2b_solve_s = median(p2b);
  layers.pipeline_decision_out_s = median(decision_out);
  layers.pipeline_other_s = median(other);
  fill_traced_layers(tally, out.spans, layers);
  layers.host_ref_us = kReferenceSeconds / median(out.host_scales) * 1e6;
  layers.trace_overhead_frac = median(overhead);
  layers.trace_overhead_iqr = iqr(overhead);
  layers.unattributed_frac = out.spans.unattributed_fraction(windows);
  if (layers.unattributed_frac > kMaxUnattributed) {
    out.fail(1, "more than 5% of traced wall time is unattributed");
  }
  add_layer_metrics(layers, out.metrics);
}

}  // namespace

RunOutput run_batch(const BatchWorkload& w, const RunOptions& options) {
  RunOutput out;
  // One CPU, so the reference kernel is timed where the repetitions run.
  // Both batch workloads decide on the calling thread (metro-10k's one
  // shard worker is the caller itself).
  const std::vector<int> cpus = allowed_cpus();
  if (!cpus.empty()) pin_current_thread(cpus.back());
  const std::size_t scenarios = w.scenarios.size();
  std::vector<Repetition> reps;
  std::vector<Repetition> firsts;  // round 0, the per-scenario reference
  TraceTally tally;
  std::vector<double> overhead;  // traced / untraced wall - 1, per pair
  std::vector<Window> windows;   // traced repetitions
  // Whole rounds over every scenario. Untraced runs need two rounds so
  // determinism is checked; traced runs pair each untraced repetition
  // with a traced one of the same scenario.
  RoundClock clock(options.seconds, options.trace ? 1 : 2);
  while (clock.next()) {
    const std::size_t round = clock.round();
    for (std::size_t k = 0; k < scenarios; ++k) {
      Repetition rep = untraced_repetition(w, w.scenarios[k]);
      out.host_scales.push_back(rep.scale);
      out.attempted += rep.digests.size();
      if (rep.audit_failed > 0) {
        out.fail(rep.audit_failed, "audit violations in a repetition");
      }
      if (round == 0) {
        firsts.push_back(rep);
      } else {
        check_against(firsts[k], rep, out);
      }
      if (options.trace) {
        const std::uint64_t slot_base = reps.size() * w.horizon;
        const double traced = traced_repetition(
            w, w.scenarios[k], firsts[k], slot_base, out, tally, windows);
        overhead.push_back(traced / rep.wall_s - 1.0);
      }
      reps.push_back(std::move(rep));
    }
  }
  if (options.trace) {
    add_layers(reps, tally, overhead, windows, out);
  } else {
    add_end_to_end(w, reps, firsts, out);
  }
  return out;
}

}  // namespace perfbench
