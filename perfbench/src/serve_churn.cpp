// serve-churn: an open-loop online run of the serve layer.
//
// Each scenario's churn delta stream is recorded and encoded into wire
// frames up front (outside every timing). A producer thread releases frame
// k when it is due (start + k / rate), reassembles and decodes it (the
// daemon socket thread's job) and submits it to a ServeLoop whose run()
// decides on a second thread. Each slot is timed from when it was due until
// its decision callback fired. Decisions are checked against a batch
// run_policy drain of a DeltaSource over the same stream. Timings are scaled
// to the reference host speed (hostspeed.h), measured on the decide CPU just
// before each repetition.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "hostspeed.h"
#include "layers.h"
#include "openloop.h"
#include "serve/codec.h"
#include "serve/server.h"
#include "sim/registry.h"
#include "sim/simulator.h"
#include "stats.h"
#include "util/memory.h"

namespace perfbench {

namespace {

namespace core = eotora::core;
namespace serve = eotora::serve;
namespace sim = eotora::sim;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The two serving threads get CPUs of their own: left to the scheduler, the
// sleeping producer and the spinning decide thread often share one CPU, and
// every wake-up then waits out the other's time slice (2-3 ms stalls that
// dominated the latency tail). The last two CPUs the process may use go to
// the producer and the decide thread; with fewer than two nothing is pinned.
struct ServingCpus {
  int producer = -1;
  int decide = -1;
};

ServingCpus serving_cpus() {
  const std::vector<int> allowed = allowed_cpus();
  ServingCpus cpus;
  if (allowed.size() >= 2) {
    cpus.producer = allowed[allowed.size() - 2];
    cpus.decide = allowed.back();
  }
  return cpus;
}

// Runs ServeLoop::run on its own thread (on `cpu` when >= 0); stops and
// joins it on every exit path (run() returns once stop was requested and
// the ring is empty).
class DecideThread {
 public:
  DecideThread(serve::ServeLoop& loop, int cpu)
      : loop_(loop), thread_([&loop, cpu] {
          pin_current_thread(cpu);
          loop.run();
        }) {}
  ~DecideThread() { join(); }
  DecideThread(const DecideThread&) = delete;
  DecideThread& operator=(const DecideThread&) = delete;
  void join() {
    loop_.request_stop();
    if (thread_.joinable()) thread_.join();
  }

 private:
  serve::ServeLoop& loop_;
  std::thread thread_;
};

struct Reference {
  std::vector<std::uint64_t> digests;
  double avg_latency = 0.0;
  double cost_over_budget = 0.0;
  std::vector<sim::pipeline::StageStats> stages;
  double decide_s = 0.0;  // summed Policy::step time
};

// Batch run_policy over a DeltaSource of the stream, every slot audited.
Reference batch_reference(const ServeWorkload& w, const ServeStream& stream,
                          RunOutput& out) {
  out.attempted += stream.deltas.size();
  const core::Instance& instance = stream.source->instance();
  ObservedPolicy policy(sim::make_policy(kPolicyName, instance, w.params));
  sim::DeltaSource source(stream.deltas, instance.num_devices(),
                          instance.num_base_stations());
  const sim::SimulationResult result = sim::run_policy(
      policy, instance, source, sim::AuditConfig{}, kDecisionSeed);
  if (!result.audit.clean()) {
    out.fail(result.audit.slots_with_violations,
             "audit: " + result.audit.summary());
  }
  Reference ref;
  ref.digests = policy.digests();
  ref.avg_latency = result.metrics.average_latency();
  ref.cost_over_budget =
      result.metrics.average_energy_cost() / instance.budget_per_slot();
  ref.stages = result.stages;
  for (const double s : policy.step_seconds()) ref.decide_s += s;
  return ref;
}

struct ServeRep {
  double scale = 1.0;  // host_scale() of the decide CPU, before the run
  double setup_s = 0.0;
  double total_s = 0.0;  // set-up to teardown
  double wall_s = 0.0;   // first due to last decision
  std::size_t completed = 0;
  std::size_t failed = 0;  // never decided, or differing from the reference
  double peak_rss_mib = 0.0;
  std::vector<double> latency_s, lag_s, decide_s, wait_s, codec_s, submit_s;
  serve::ServeMetrics metrics;
};

// One open-loop run of a scenario's stream at `rate` slots/s through a
// fresh ServeLoop. With `spans`, the run is also recorded as spans.
ServeRep serve_repetition(const ServeWorkload& w, const ServeStream& stream,
                          double rate, const ServingCpus& cpus,
                          const std::vector<std::uint64_t>& reference,
                          SpanRecorder* spans, std::uint64_t slot_base) {
  ServeRep rep;
  rep.scale = host_scale(cpus.decide);
  eotora::util::reset_peak_rss();
  const std::size_t slots = stream.frames.size();
  const core::Instance& instance = stream.source->instance();
  const Clock::time_point setup_start = Clock::now();
  auto observed = std::make_unique<ObservedPolicy>(
      sim::make_policy(kPolicyName, instance, w.params));
  const ObservedPolicy& policy = *observed;
  serve::ServeLoop loop(instance, std::move(observed));
  const Clock::time_point setup_end = Clock::now();
  rep.setup_s = seconds_between(setup_start, setup_end);

  OpenLoop schedule(rate, slots);
  const std::uint64_t first_slot = stream.deltas.front().slot;
  loop.set_decision_callback(
      [&schedule, first_slot](std::uint64_t slot, const core::DppSlotResult&) {
        schedule.complete(slot - first_slot);
      });
  std::vector<Clock::time_point> codec_end(slots), submit_end(slots);
  Clock::time_point teardown_start;
  {
    serve::FrameAssembler assembler;
    serve::Frame frame;
    DecideThread decide(loop, cpus.decide);
    schedule.run([&](std::size_t k) {
      const std::vector<std::uint8_t>& bytes = stream.frames[k];
      assembler.feed(bytes.data(), bytes.size());
      if (!assembler.next(frame)) {
        throw std::runtime_error("frame did not reassemble");
      }
      const sim::SlotDelta delta = serve::decode_delta(frame.payload);
      codec_end[k] = Clock::now();
      while (!loop.submit(delta) && !loop.failed()) std::this_thread::yield();
      submit_end[k] = Clock::now();
    });
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(10);
    while (!loop.drained() && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    teardown_start = Clock::now();
    decide.join();
  }
  rep.metrics = loop.metrics();
  rep.peak_rss_mib = peak_rss_mib();

  Clock::time_point last_done = schedule.start();
  for (std::size_t k = 0; k < slots; ++k) {
    rep.lag_s.push_back(schedule.lag_s(k));
    rep.codec_s.push_back(seconds_between(schedule.released(k), codec_end[k]));
    rep.submit_s.push_back(seconds_between(codec_end[k], submit_end[k]));
    const bool decided = schedule.done(k) && k < policy.digests().size();
    if (!decided || policy.digests()[k] != reference[k]) {
      ++rep.failed;
      continue;
    }
    ++rep.completed;
    last_done = std::max(last_done, schedule.done_at(k));
    rep.latency_s.push_back(schedule.latency_s(k));
    rep.decide_s.push_back(policy.step_seconds()[k]);
    rep.wait_s.push_back(rep.latency_s.back() - rep.decide_s.back());
  }
  rep.wall_s = seconds_between(schedule.start(), last_done);
  const Clock::time_point end = Clock::now();
  rep.total_s = seconds_between(setup_start, end);

  if (spans != nullptr) {
    const auto at = [spans](Clock::time_point t) { return spans->seconds(t); };
    const int setup = spans->add("setup", at(setup_start), at(setup_end),
                                 slot_base);
    spans->add("setup.policy", at(setup_start), at(setup_end), slot_base,
               setup);
    double producer_free = at(schedule.start());
    for (std::size_t k = 0; k < slots; ++k) {
      const std::uint64_t id = slot_base + k;
      if (at(schedule.released(k)) > producer_free) {
        spans->add("loadgen.wait", producer_free, at(schedule.released(k)), id);
      }
      producer_free = at(submit_end[k]);
      if (!schedule.done(k) || k >= policy.step_starts().size()) continue;
      const double decide_start = at(policy.step_starts()[k]);
      const double decide_end = decide_start + policy.step_seconds()[k];
      const int root =
          spans->add("serve.slot", at(schedule.due(k)), at(schedule.done_at(k)),
                     id);
      spans->add("serve.codec", at(schedule.released(k)), at(codec_end[k]), id,
                 root);
      spans->add("serve.submit", at(codec_end[k]), at(submit_end[k]), id, root);
      spans->add("serve.ring", at(submit_end[k]), decide_start, id, root);
      spans->add("serve.decide", decide_start, decide_end, id, root);
      spans->add("serve.publish", decide_end, at(schedule.done_at(k)), id,
                 root);
    }
    spans->add("teardown", at(teardown_start), at(end), slot_base);
  }
  return rep;
}

// A repetition must decide every slot exactly as the batch reference did,
// so ServeMetrics' averages must equal the reference's too.
void check_repetition(const ServeRep& rep, const Reference& ref, double budget,
                      RunOutput& out) {
  out.attempted += ref.digests.size();
  if (rep.failed > 0) {
    out.fail(rep.failed,
             "serve slots undecided or differing from the batch reference");
  } else if (rep.metrics.avg_latency != ref.avg_latency ||
             rep.metrics.avg_energy_cost / budget != ref.cost_over_budget) {
    out.fail(1, "ServeMetrics averages differ from the batch reference");
  }
}

template <typename Field>
std::vector<double> gather(const std::vector<ServeRep>& reps, Field field) {
  std::vector<double> out;
  for (const ServeRep& rep : reps) {
    const std::vector<double>& xs = rep.*field;
    out.insert(out.end(), xs.begin(), xs.end());
  }
  return out;
}

void add_end_to_end(const ServeWorkload& w, const std::vector<ServeRep>& reps,
                    const std::vector<ServeRep>& saturated,
                    const std::vector<Reference>& refs, RunOutput& out) {
  std::vector<double> setups, rss, saturated_rate;
  for (const std::vector<ServeRep>* group : {&reps, &saturated}) {
    for (const ServeRep& rep : *group) {
      setups.push_back(rep.setup_s * rep.scale);
      rss.push_back(rep.peak_rss_mib);
      out.host_scales.push_back(rep.scale);
    }
  }
  for (const ServeRep& rep : saturated) {
    saturated_rate.push_back(static_cast<double>(rep.completed) /
                             (rep.wall_s * rep.scale));
  }
  double completed = 0.0;
  double wall = 0.0;
  for (const ServeRep& rep : reps) {
    completed += static_cast<double>(rep.completed);
    wall += rep.wall_s;
  }
  double latency = 0.0;
  double cost = 0.0;
  for (const Reference& ref : refs) {
    latency += ref.avg_latency / static_cast<double>(refs.size());
    cost += ref.cost_over_budget / static_cast<double>(refs.size());
  }
  MetricSet& m = out.metrics;
  m.add("setup_s", median(setups), "s",
        "median of n=" + std::to_string(setups.size()));
  // Paced by the offered rate, not by the host: left unscaled.
  m.add("slots_per_s", completed / wall, "1/s",
        "open loop offered " + std::to_string(w.offered_rate) + "/s");
  std::vector<std::vector<double>> decide, latency_s;
  for (const ServeRep& rep : reps) {
    decide.push_back(rep.decide_s);
    latency_s.push_back(rep.latency_s);
    for (double& s : decide.back()) s *= rep.scale;
    for (double& s : latency_s.back()) s *= rep.scale;
  }
  add_timing(m, "decide", decide, w.tail_cap);
  add_timing(m, "slot_latency", latency_s, w.tail_cap);
  m.add("sustained_rate_slots_per_s", median(saturated_rate), "1/s",
        "saturated loop, median of " + std::to_string(saturated.size()) +
            " repetitions");
  m.add("avg_task_latency_s", latency, "s",
        "mean over " + std::to_string(refs.size()) + " scenarios");
  m.add("cost_over_budget", cost, "ratio");
  m.add("peak_rss_mib", median(rss), "MiB", "median over repetitions");
}

}  // namespace

RunOutput run_serve_churn(const ServeWorkload& w, const RunOptions& options) {
  RunOutput out;
  const ServingCpus cpus = serving_cpus();
  pin_current_thread(cpus.producer);
  std::vector<ServeStream> streams;
  std::vector<Reference> refs;
  for (const sim::ScenarioConfig& scenario : w.scenarios) {
    streams.push_back(record_stream(scenario, w.slots));
    refs.push_back(batch_reference(w, streams.back(), out));
  }
  const auto budget = [&streams](std::size_t k) {
    return streams[k].source->instance().budget_per_slot();
  };

  std::vector<ServeRep> reps;
  if (!options.trace) {
    // Whole rounds over every scenario: a repetition at the fixed offered
    // rate, then one with the whole stream due at once. The latter keeps
    // the ring non-empty, so the loop runs saturated and completes slots at
    // the highest rate it sustains.
    constexpr double kAllDueAtOnce = 1e12;
    std::vector<ServeRep> saturated;
    RoundClock clock(options.seconds, 2);
    while (clock.next()) {
      for (std::size_t k = 0; k < streams.size(); ++k) {
        reps.push_back(serve_repetition(w, streams[k], w.offered_rate, cpus,
                                        refs[k].digests, nullptr, 0));
        check_repetition(reps.back(), refs[k], budget(k), out);
        saturated.push_back(serve_repetition(w, streams[k], kAllDueAtOnce, cpus,
                                             refs[k].digests, nullptr, 0));
        check_repetition(saturated.back(), refs[k], budget(k), out);
      }
    }
    add_end_to_end(w, reps, saturated, refs, out);
    return out;
  }

  // Traced run: untraced and traced open-loop repetitions of each scenario
  // interleaved, then one traced per-layer drain of every stream.
  std::vector<ServeRep> traced;
  std::vector<double> overhead;
  std::vector<Window> windows;
  std::uint64_t slot_base = 0;
  RoundClock clock(options.seconds, 1);
  while (clock.next()) {
    for (std::size_t k = 0; k < streams.size(); ++k) {
      reps.push_back(serve_repetition(w, streams[k], w.offered_rate, cpus,
                                      refs[k].digests, nullptr, 0));
      check_repetition(reps.back(), refs[k], budget(k), out);
      const double from = out.spans.now();
      traced.push_back(serve_repetition(w, streams[k], w.offered_rate, cpus,
                                        refs[k].digests, &out.spans,
                                        slot_base));
      windows.emplace_back(from, out.spans.now());
      slot_base += w.slots;
      check_repetition(traced.back(), refs[k], budget(k), out);
      overhead.push_back(traced.back().total_s / reps.back().total_s - 1.0);
    }
  }
  TraceTally tally;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    const core::Instance& instance = streams[k].source->instance();
    const double from = out.spans.now();
    std::unique_ptr<sim::DeltaSource> source;
    {
      const ScopedSpan setup(&out.spans, "setup", slot_base);
      source = std::make_unique<sim::DeltaSource>(streams[k].deltas,
                                                  instance.num_devices(),
                                                  instance.num_base_stations());
    }
    TraceTally drain;
    traced_drain(instance, *source, w.params, refs[k].digests, out.spans,
                 slot_base, drain);
    {
      const ScopedSpan teardown(&out.spans, "teardown", slot_base);
      source.reset();
    }
    windows.emplace_back(from, out.spans.now());
    slot_base += w.slots;
    out.attempted += drain.slots;
    if (drain.audit_failed > 0) {
      out.fail(drain.audit_failed, "audit violations in the traced drain");
    }
    if (drain.mismatched > 0) {
      out.fail(drain.mismatched, "traced path differs from the serve loop");
    }
    tally.merge(drain);
  }

  // DeltaApplier::apply alone, on the same streams.
  std::vector<double> apply_s;
  for (const ServeStream& stream : streams) {
    const core::Instance& instance = stream.source->instance();
    sim::DeltaApplier applier(instance.num_devices(),
                              instance.num_base_stations());
    core::SlotState state;
    for (const sim::SlotDelta& delta : stream.deltas) {
      const Clock::time_point a = Clock::now();
      applier.apply(delta, state);
      apply_s.push_back(seconds_between(a, Clock::now()));
    }
  }

  LayerMetrics layers;
  std::vector<double> setup_policy, decide_p50;
  double ring_max = 0.0;
  for (const std::vector<ServeRep>* group : {&reps, &traced}) {
    for (const ServeRep& rep : *group) {
      setup_policy.push_back(rep.setup_s);
      decide_p50.push_back(rep.metrics.decide_p50_us * 1e-3);
      ring_max = std::max(ring_max,
                          static_cast<double>(rep.metrics.ingest_depth_max));
    }
  }
  layers.setup_policy_s = median(setup_policy);
  // Program-reported stage seconds, per scenario stream.
  double decide_total = 0.0;
  for (const Reference& ref : refs) {
    const double share = 1.0 / static_cast<double>(refs.size());
    decide_total += ref.decide_s * share;
    for (const auto& stage : ref.stages) {
      if (stage.name == "p2a_solve") {
        layers.pipeline_p2a_solve_s += stage.seconds * share;
      } else if (stage.name == "p2b_solve") {
        layers.pipeline_p2b_solve_s += stage.seconds * share;
      } else if (stage.name == "decision_out") {
        layers.pipeline_decision_out_s += stage.seconds * share;
      }
    }
  }
  layers.pipeline_other_s = decide_total - layers.pipeline_p2a_solve_s -
                            layers.pipeline_p2b_solve_s -
                            layers.pipeline_decision_out_s;
  fill_traced_layers(tally, out.spans, layers);
  layers.delta_apply_us = median(apply_s) * 1e6;
  layers.serve_codec_us = median(gather(traced, &ServeRep::codec_s)) * 1e6;
  layers.serve_submit_us = median(gather(traced, &ServeRep::submit_s)) * 1e6;
  layers.serve_decide_p50_ms = median(decide_p50);
  layers.serve_wait_tail_ms =
      summarize(gather(traced, &ServeRep::wait_s), w.tail_cap).tail * 1e3;
  layers.serve_ring_depth_max = ring_max;
  layers.loadgen_lag_tail_ms =
      summarize(gather(traced, &ServeRep::lag_s), w.tail_cap).tail * 1e3;
  for (const std::vector<ServeRep>* group : {&reps, &traced}) {
    for (const ServeRep& rep : *group) out.host_scales.push_back(rep.scale);
  }
  layers.host_ref_us = kReferenceSeconds / median(out.host_scales) * 1e6;
  layers.trace_overhead_frac = median(overhead);
  layers.trace_overhead_iqr = iqr(overhead);
  layers.unattributed_frac = out.spans.unattributed_fraction(windows);
  if (layers.unattributed_frac > kMaxUnattributed) {
    out.fail(1, "more than 5% of traced wall time is unattributed");
  }
  add_layer_metrics(layers, out.metrics);
  return out;
}

}  // namespace perfbench
