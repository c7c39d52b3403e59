// google-benchmark micro suite over the hot paths of the per-slot decision:
// WCG construction, best responses, Lemma 1, latency evaluation, P2-B, and
// full CGBA / BDMA solves at the paper's scale.
#include <benchmark/benchmark.h>

#include "eotora/eotora.h"

namespace {

using namespace eotora;

struct Fixture {
  Fixture() {
    sim::ScenarioConfig config;
    config.devices = 100;
    config.seed = 555;
    scenario = std::make_unique<sim::Scenario>(config);
    for (int warmup = 0; warmup < 3; ++warmup) {
      state = scenario->next_state();
    }
    problem = std::make_unique<core::WcgProblem>(
        scenario->instance(), state,
        scenario->instance().max_frequencies());
    util::Rng rng(1);
    profile = problem->random_profile(rng);
    assignment = problem->to_assignment(profile);
  }

  std::unique_ptr<sim::Scenario> scenario;
  core::SlotState state;
  std::unique_ptr<core::WcgProblem> problem;
  core::Profile profile;
  core::Assignment assignment;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// Streaming state generation: the value-returning next_state() builds
// fresh per-device vectors and a fresh channel matrix every slot; the
// in-place overload refills the caller's buffer (sim::ScenarioSource's
// steady state — no per-slot allocations once the shapes stabilize). Both
// draw the same RNG stream, so only allocation behavior differs.
void BM_ScenarioNextStateAlloc(benchmark::State& bench) {
  sim::ScenarioConfig config;
  config.devices = 100;
  config.seed = 777;
  sim::Scenario scenario(config);
  for (auto _ : bench) {
    core::SlotState state = scenario.next_state();
    benchmark::DoNotOptimize(state.price_per_mwh);
  }
}
BENCHMARK(BM_ScenarioNextStateAlloc);

void BM_ScenarioNextStateInPlace(benchmark::State& bench) {
  sim::ScenarioConfig config;
  config.devices = 100;
  config.seed = 777;
  sim::Scenario scenario(config);
  core::SlotState state;
  scenario.next_state(state);  // settle the buffer shapes
  for (auto _ : bench) {
    scenario.next_state(state);
    benchmark::DoNotOptimize(state.price_per_mwh);
  }
}
BENCHMARK(BM_ScenarioNextStateInPlace);

// Random streams: one uniform and one polar normal per iteration, the two
// draws state generation makes most (σ, shadowing).
void BM_RngUniform(benchmark::State& bench) {
  util::Rng rng(12345);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(rng.uniform(0.5, 1.0));
  }
}
BENCHMARK(BM_RngUniform);

void BM_RngNormal(benchmark::State& bench) {
  util::Rng rng(12345);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(rng.normal(0.0, 2.0));
  }
}
BENCHMARK(BM_RngNormal);

// One channel step at metro scale: 10^4 devices x 128 stations (64
// districts), of which each device can ever see only its 2 own-district
// stations. The scenario is built once; devices stay put.
void BM_ChannelStepMetro(benchmark::State& bench) {
  sim::ScenarioConfig config;
  config.devices = 10000;
  config.metro_districts = 64;
  config.seed = 3;
  static const sim::Scenario scenario(config);
  const topology::Topology& topo = scenario.topology();
  topology::ChannelModel channel(config.channel, topo, util::Rng(7),
                                 sim::metro_device_boxes(config));
  topology::ChannelMatrix h;
  for (auto _ : bench) {
    channel.step_into(topo, h);
    benchmark::DoNotOptimize(h.data());
  }
}
BENCHMARK(BM_ChannelStepMetro)->Unit(benchmark::kMillisecond);

void BM_WcgConstruction(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  for (auto _ : bench) {
    core::WcgProblem problem(instance, f.state, instance.max_frequencies());
    benchmark::DoNotOptimize(problem.num_resources());
  }
}
BENCHMARK(BM_WcgConstruction);

// rebuild() reuses the arena/offset/index capacity construction pays for
// every call — compare against BM_WcgConstruction.
void BM_WcgRebuild(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  core::WcgProblem problem(instance, f.state, instance.max_frequencies());
  for (auto _ : bench) {
    problem.rebuild(instance, f.state, instance.max_frequencies());
    benchmark::DoNotOptimize(problem.num_resources());
  }
}
BENCHMARK(BM_WcgRebuild);

// The metro-10k layout (10^4 devices, 64 districts, 512 servers): each
// device reaches 8 servers over up to 16 (base station, server) options, so
// per-slot set-up work sized by devices x servers shows up here and not in
// the 100-device paper fixture above.
struct MetroFixture {
  MetroFixture() : scenario(config()), state(scenario.next_state()) {}
  static sim::ScenarioConfig config() {
    sim::ScenarioConfig config;
    config.devices = 10000;
    config.metro_districts = 64;
    config.seed = 3;
    return config;
  }
  sim::Scenario scenario;
  core::SlotState state;
};

MetroFixture& metro_fixture() {
  static MetroFixture f;
  return f;
}

void BM_WcgRebuildMetro(benchmark::State& bench) {
  auto& f = metro_fixture();
  const auto& instance = f.scenario.instance();
  core::WcgProblem problem(instance, f.state, instance.min_frequencies());
  for (auto _ : bench) {
    problem.rebuild(instance, f.state, instance.min_frequencies());
    benchmark::DoNotOptimize(problem.num_options());
  }
}
BENCHMARK(BM_WcgRebuildMetro)->Unit(benchmark::kMillisecond);

// The sharded drivers' plan step on the path a metro slot takes 2 times in
// 3: the decomposition is reused (signature check), and the 64 shards are
// patched in place with the rebuilt p-values and weights. The rebuild
// itself is untimed.
void BM_ShardPlanMetro(benchmark::State& bench) {
  auto& f = metro_fixture();
  const auto& instance = f.scenario.instance();
  core::WcgProblem problem(instance, f.state, instance.min_frequencies());
  core::ShardedWorkspace ws;
  benchmark::DoNotOptimize(core::plan_shards(problem, ws).count);
  for (auto _ : bench) {
    bench.PauseTiming();
    problem.rebuild(instance, f.state, instance.min_frequencies());
    bench.ResumeTiming();
    benchmark::DoNotOptimize(core::plan_shards(problem, ws).count);
  }
}
BENCHMARK(BM_ShardPlanMetro)->Unit(benchmark::kMillisecond);

// Component decomposition cost: a from-scratch union-find sweep (forced by
// rebuild(), which invalidates the cache) vs the signature-reuse fast path
// that per-slot rebuilds hit when coverage is unchanged (the steady state
// of the metro scenario). Pairs with the shard/plan span in core/sharded.
void BM_ComponentFindFromScratch(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  core::WcgProblem problem(instance, f.state, instance.max_frequencies());
  for (auto _ : bench) {
    problem.rebuild(instance, f.state, instance.max_frequencies());
    problem.invalidate_component_signature();
    benchmark::DoNotOptimize(problem.components().count);
  }
}
BENCHMARK(BM_ComponentFindFromScratch);

void BM_ComponentFindIncremental(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  core::WcgProblem problem(instance, f.state, instance.max_frequencies());
  benchmark::DoNotOptimize(problem.components().count);  // prime the cache
  for (auto _ : bench) {
    problem.rebuild(instance, f.state, instance.max_frequencies());
    benchmark::DoNotOptimize(problem.components().count);
  }
}
BENCHMARK(BM_ComponentFindIncremental);

void BM_TotalCost(benchmark::State& bench) {
  auto& f = fixture();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(f.problem->total_cost(f.profile));
  }
}
BENCHMARK(BM_TotalCost);

void BM_BestResponseSweep(benchmark::State& bench) {
  auto& f = fixture();
  core::LoadTracker tracker(*f.problem, f.profile);
  for (auto _ : bench) {
    double total = 0.0;
    for (std::size_t i = 0; i < f.problem->num_devices(); ++i) {
      total += tracker.best_response(i).cost;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_BestResponseSweep);

void BM_Lemma1Allocation(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::optimal_allocation(instance, f.state, f.assignment));
  }
}
BENCHMARK(BM_Lemma1Allocation);

void BM_ReducedLatency(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const auto freq = instance.max_frequencies();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::reduced_latency(instance, f.state, f.assignment, freq));
  }
}
BENCHMARK(BM_ReducedLatency);

void BM_P2bSolve(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::solve_p2b(instance, f.state, f.assignment, 100.0, 50.0));
  }
}
BENCHMARK(BM_P2bSolve);

// best_response_scan: a full best-response sweep through the incremental
// engine (the CGBA hot path — every candidate cost comes off the kernel).
void BM_KernelScan(benchmark::State& bench) {
  auto& f = fixture();
  core::LoadTracker tracker(*f.problem, f.profile);
  core::BestResponseEngine engine(tracker);
  for (auto _ : bench) {
    double total = 0.0;
    for (std::size_t i = 0; i < f.problem->num_devices(); ++i) {
      total += engine.best_response(i).cost;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_KernelScan);

// lemma1_batch: the workspace overload, allocation-free.
void BM_KernelLemma1(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  core::Lemma1Workspace workspace;
  core::ResourceAllocation out;
  for (auto _ : bench) {
    core::optimal_allocation(instance, f.state, f.assignment, workspace, out);
    benchmark::DoNotOptimize(out.phi.data());
  }
}
BENCHMARK(BM_KernelLemma1);

// p2b_batch: the workspace overload — sqrt-chain load build plus the
// batched frequency bisection.
void BM_KernelP2b(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  core::P2bWorkspace workspace;
  core::P2bResult result;
  for (auto _ : bench) {
    core::solve_p2b(instance, f.state, f.assignment, 100.0, 50.0, 1e-7,
                    workspace, result);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_KernelP2b);

void BM_CgbaSolve(benchmark::State& bench) {
  auto& f = fixture();
  util::Rng rng(2);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::cgba(*f.problem, core::CgbaConfig{}, rng));
  }
}
BENCHMARK(BM_CgbaSolve);

// Cached BestResponseEngine vs the retained naive full-rescan oracle, same
// warm start, both selection rules. The pairs produce bit-identical
// SolveResults (tests/test_wcg_incremental.cpp); only the time differs.
void cgba_selection_bench(benchmark::State& bench,
                          core::CgbaSelection selection, bool naive) {
  auto& f = fixture();
  core::CgbaConfig config;
  config.selection = selection;
  config.naive_scan = naive;
  for (auto _ : bench) {
    benchmark::DoNotOptimize(core::cgba_from(*f.problem, config, f.profile));
  }
}
void BM_CgbaMaxGapCached(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kMaxGap, false);
}
BENCHMARK(BM_CgbaMaxGapCached);
void BM_CgbaMaxGapNaive(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kMaxGap, true);
}
BENCHMARK(BM_CgbaMaxGapNaive);
void BM_CgbaRoundRobinCached(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kRoundRobin, false);
}
BENCHMARK(BM_CgbaRoundRobinCached);
void BM_CgbaRoundRobinNaive(benchmark::State& bench) {
  cgba_selection_bench(bench, core::CgbaSelection::kRoundRobin, true);
}
BENCHMARK(BM_CgbaRoundRobinNaive);

// MCBA with the O(1) delta_cost accept test vs the O(num_resources)
// total_cost_if_moved oracle.
void mcba_bench(benchmark::State& bench, bool naive) {
  auto& f = fixture();
  core::McbaConfig config;
  config.iterations = 20000;
  config.naive_scan = naive;
  for (auto _ : bench) {
    util::Rng rng(4);
    benchmark::DoNotOptimize(core::mcba(*f.problem, config, rng));
  }
}
void BM_McbaFast(benchmark::State& bench) { mcba_bench(bench, false); }
BENCHMARK(BM_McbaFast);
void BM_McbaNaive(benchmark::State& bench) { mcba_bench(bench, true); }
BENCHMARK(BM_McbaNaive);

// The raw per-proposal evaluators behind the MCBA pair.
void BM_DeltaCost(benchmark::State& bench) {
  auto& f = fixture();
  core::LoadTracker tracker(*f.problem, f.profile);
  util::Rng rng(5);
  for (auto _ : bench) {
    const std::size_t device = rng.index(f.problem->num_devices());
    const std::size_t option = rng.index(f.problem->options(device).size());
    benchmark::DoNotOptimize(tracker.delta_cost(device, option));
  }
}
BENCHMARK(BM_DeltaCost);

void BM_TotalCostIfMoved(benchmark::State& bench) {
  auto& f = fixture();
  core::LoadTracker tracker(*f.problem, f.profile);
  util::Rng rng(5);
  for (auto _ : bench) {
    const std::size_t device = rng.index(f.problem->num_devices());
    const std::size_t option = rng.index(f.problem->options(device).size());
    benchmark::DoNotOptimize(tracker.total_cost_if_moved(device, option));
  }
}
BENCHMARK(BM_TotalCostIfMoved);

void BM_BdmaSlot(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  util::Rng rng(3);
  core::BdmaConfig config;
  config.iterations = 5;
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        core::bdma(instance, f.state, 100.0, 50.0, config, rng));
  }
}
BENCHMARK(BM_BdmaSlot);

void BM_FrankWolfeLowerBound(benchmark::State& bench) {
  auto& f = fixture();
  core::RelaxationConfig config;
  config.max_iterations = 200;
  for (auto _ : bench) {
    benchmark::DoNotOptimize(core::fractional_lower_bound(*f.problem, config));
  }
}
BENCHMARK(BM_FrankWolfeLowerBound);

void BM_DesStaticSlot(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const auto freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, f.state, f.assignment);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        des::simulate_slot(instance, f.state, f.assignment, freq, alloc,
                           des::SharingDiscipline::kStaticShares));
  }
}
BENCHMARK(BM_DesStaticSlot);

// Observability overhead gate: the per-slot decide loop (run_policy over
// pre-drawn states) with tracing + counters disabled vs enabled. The
// instrumented variant pays the live cost of every span, counter
// increment, and phase timer on the hot path; CI runs the pair randomly
// interleaved and asserts the median per-round ratio stays under 2%. The
// scenario, its states and the policy are built once, outside the timed
// region (run_policy resets the policy), so both variants time the same
// decide work and nothing else. The trace buffer is cleared per iteration
// so memory stays bounded across repetitions.
void decide_loop_bench(benchmark::State& bench, bool traced) {
  sim::ScenarioConfig config;
  config.devices = 40;
  config.seed = 999;
  constexpr std::size_t kSlots = 24;
  sim::Scenario scenario(config);
  sim::MaterializedSource source(scenario.generate_states(kSlots));
  auto policy = sim::make_policy("dpp-bdma", scenario.instance(),
                                 sim::PolicyParams{});
  const bool was_enabled = util::trace::enabled();
  for (auto _ : bench) {
    util::trace::set_enabled(traced);
    source.reset();
    const auto result =
        sim::run_policy(*policy, source, 1, /*keep_series=*/false);
    benchmark::DoNotOptimize(result.counters.bdma_iterations);
    util::trace::set_enabled(was_enabled);
    if (traced) util::trace::clear();
  }
}
void BM_DecideLoopUninstrumented(benchmark::State& bench) {
  decide_loop_bench(bench, false);
}
BENCHMARK(BM_DecideLoopUninstrumented);
void BM_DecideLoopInstrumented(benchmark::State& bench) {
  decide_loop_bench(bench, true);
}
BENCHMARK(BM_DecideLoopInstrumented);

void BM_DesProcessorSharingSlot(benchmark::State& bench) {
  auto& f = fixture();
  const auto& instance = f.scenario->instance();
  const auto freq = instance.max_frequencies();
  const auto alloc = core::optimal_allocation(instance, f.state, f.assignment);
  for (auto _ : bench) {
    benchmark::DoNotOptimize(
        des::simulate_slot(instance, f.state, f.assignment, freq, alloc,
                           des::SharingDiscipline::kProcessorSharing));
  }
}
BENCHMARK(BM_DesProcessorSharingSlot);

}  // namespace

BENCHMARK_MAIN();
