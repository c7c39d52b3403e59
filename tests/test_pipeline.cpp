// The pipeline contract:
//  * reset() restarts every registry assembly exactly, slot by slot;
//  * typed-port mismatches fail at construction with descriptive errors;
//  * the per-stage SolverCounters of a run sum exactly to the run totals;
//  * the AuditTap hook fires once per slot.
#include "sim/pipeline/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bdma.h"
#include "core/lemma1.h"
#include "sim/pipeline/assemblies.h"
#include "sim/pipeline/stages.h"
#include "sim/policy_params.h"
#include "sim/registry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

namespace eotora::sim::pipeline {
namespace {

ScenarioConfig tiny(std::uint64_t seed) {
  ScenarioConfig config;
  config.devices = 6;
  config.mid_band_stations = 1;
  config.low_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = seed;
  return config;
}

PolicyParams fast_params() {
  PolicyParams params;
  params.bdma_iterations = 2;
  params.mcba_iterations = 50;
  params.mpc.period = 4;   // reach the forecasting branch within the run
  params.mpc.window = 4;
  return params;
}

// Exact (bitwise, via operator==) equality of every DppSlotResult field.
void expect_identical_slot(const core::DppSlotResult& a,
                           const core::DppSlotResult& b,
                           const std::string& context) {
  EXPECT_EQ(a.decision.assignment.bs_of, b.decision.assignment.bs_of)
      << context;
  EXPECT_EQ(a.decision.assignment.server_of, b.decision.assignment.server_of)
      << context;
  EXPECT_EQ(a.decision.frequencies, b.decision.frequencies) << context;
  EXPECT_EQ(a.decision.allocation.phi, b.decision.allocation.phi) << context;
  EXPECT_EQ(a.decision.allocation.psi_access, b.decision.allocation.psi_access)
      << context;
  EXPECT_EQ(a.decision.allocation.psi_fronthaul,
            b.decision.allocation.psi_fronthaul)
      << context;
  EXPECT_EQ(a.latency, b.latency) << context;
  EXPECT_EQ(a.energy_cost, b.energy_cost) << context;
  EXPECT_EQ(a.theta, b.theta) << context;
  EXPECT_EQ(a.queue_before, b.queue_before) << context;
  EXPECT_EQ(a.queue_after, b.queue_after) << context;
  EXPECT_EQ(a.objective, b.objective) << context;
  EXPECT_EQ(a.p2a_iterations, b.p2a_iterations) << context;
}

// reset() must return every assembly to its freshly constructed state:
// queue, BDMA workspaces, MPC trend estimators and per-stage stats. A run
// after reset() repeats the first run bit for bit, slot by slot — long
// enough (mpc.period = 4) that MPC's reset has forecasting state to forget.
TEST(Pipeline, ResetRestartsTheGraphExactly) {
  Scenario scenario(tiny(7));
  const auto states = scenario.generate_states(10);
  const PolicyParams params = fast_params();
  for (const auto& name : registered_policies()) {
    auto policy = make_policy(name, scenario.instance(), params);
    std::vector<core::DppSlotResult> first;
    util::Rng first_rng(3);
    for (const auto& state : states) {
      first.push_back(policy->step(state, first_rng));
    }
    const auto first_stats = policy->stage_stats();
    policy->reset();
    util::Rng second_rng(3);
    for (std::size_t t = 0; t < states.size(); ++t) {
      expect_identical_slot(first[t], policy->step(states[t], second_rng),
                            name + " slot=" + std::to_string(t));
    }
    const auto second_stats = policy->stage_stats();
    ASSERT_EQ(first_stats.size(), second_stats.size()) << name;
    for (std::size_t i = 0; i < first_stats.size(); ++i) {
      EXPECT_EQ(first_stats[i].runs, second_stats[i].runs) << name;
      EXPECT_EQ(first_stats[i].counters, second_stats[i].counters) << name;
    }
  }
}

TEST(Pipeline, StageCountersSumExactlyToRunTotals) {
  Scenario scenario(tiny(5));
  const auto states = scenario.generate_states(5);
  const PolicyParams params = fast_params();
  for (const auto& name : registered_policies()) {
    auto policy = make_policy(name, scenario.instance(), params);
    const auto result = run_policy(*policy, states, 2);
    ASSERT_FALSE(result.stages.empty()) << name;
    core::counters::SolverCounters sum;
    for (const auto& stage : result.stages) sum.merge(stage.counters);
    EXPECT_EQ(sum, result.counters) << name;
  }
}

TEST(Pipeline, LoopStagesRunOncePerBdmaIterationPerSlot) {
  Scenario scenario(tiny(5));
  const auto states = scenario.generate_states(5);
  PolicyParams params = fast_params();
  params.bdma_iterations = 3;
  auto policy = make_policy("dpp-bdma", scenario.instance(), params);
  const auto result = run_policy(*policy, states, 2);
  for (const auto& stage : result.stages) {
    const bool in_loop = stage.name == "p2a_solve" || stage.name == "p2b_solve";
    const std::uint64_t expected =
        states.size() * (in_loop ? params.bdma_iterations : 1);
    EXPECT_EQ(stage.runs, expected) << stage.name;
  }
}

// Drives the four core::bdma_* entry points z times per slot by hand, the
// way a caller that times each half does, with the decision-out and queue
// steps written out. Decisions and solver counters must match the dpp-bdma
// graph slot by slot; the fixed-point exit lives inside the iterate halves,
// so both drivers skip the same iterations. `expected_shards` is the
// component count of the sharded P2-A solves (0 when unsharded). Returns
// the hand loop's BDMA iteration total.
std::uint64_t expect_hand_loop_matches_policy(const ScenarioConfig& config,
                                              std::size_t slots,
                                              const PolicyParams& params,
                                              std::size_t expected_shards) {
  Scenario scenario(config);
  const auto states = scenario.generate_states(slots);
  const core::Instance& instance = scenario.instance();
  auto policy = make_policy("dpp-bdma", instance, params);
  const core::DppConfig dpp =
      dpp_config_from(params, core::P2aSolverKind::kCgba);
  core::BdmaWorkspace workspace;
  core::BdmaLoopState loop;
  core::Lemma1Workspace lemma1;
  double queue = dpp.initial_queue;
  util::Rng policy_rng(3);
  util::Rng hand_rng(3);
  std::uint64_t iterations = 0;
  for (std::size_t t = 0; t < states.size(); ++t) {
    const core::SlotState& state = states[t];
    core::counters::SolverCounters by_policy;
    core::counters::SolverCounters by_hand;
    core::DppSlotResult expected;
    {
      const core::counters::Scope scope(by_policy);
      expected = policy->step(state, policy_rng);
    }
    core::DppSlotResult got;
    {
      const core::counters::Scope scope(by_hand);
      got.queue_before = queue;
      core::bdma_begin_slot(instance, state, workspace, loop);
      for (std::size_t iter = 0; iter < dpp.bdma.iterations; ++iter) {
        core::bdma_p2a_iterate(instance, state, dpp.bdma, iter, hand_rng,
                               workspace, loop);
        core::bdma_p2b_iterate(instance, state, dpp.v, queue, dpp.bdma,
                               workspace, loop);
      }
      core::bdma_finish_slot(instance, state, loop);
      const core::BdmaResult& best = loop.best;
      core::optimal_allocation(instance, state, best.assignment, lemma1,
                               got.decision.allocation);
      got.decision.assignment = best.assignment;
      got.decision.frequencies = best.frequencies;
      got.latency = best.latency;
      got.theta = best.theta;
      got.energy_cost = best.theta + instance.budget_per_slot();
      got.objective = best.objective;
      got.p2a_iterations = best.p2a_iterations;
      queue = std::max(queue + best.theta, 0.0);  // Eq. (21)
      got.queue_after = queue;
    }
    const std::string context = "slot=" + std::to_string(t);
    expect_identical_slot(expected, got, context);
    EXPECT_EQ(by_policy, by_hand) << context;
    iterations += by_hand.bdma_iterations;
  }
  // A no-op P2-A call adds no per-shard effort, so the per-component
  // breakdown still sums to the stage totals.
  for (const StageStats& stage : policy->stage_stats()) {
    if (stage.name != "p2a_solve") continue;
    EXPECT_EQ(stage.shards.size(), expected_shards);
    if (stage.shards.empty()) continue;
    core::counters::SolverCounters summed;
    for (const auto& shard : stage.shards) summed.merge(shard);
    EXPECT_EQ(summed.cgba_rounds, stage.counters.cgba_rounds) << stage.name;
    EXPECT_EQ(summed.cgba_moves, stage.counters.cgba_moves) << stage.name;
    EXPECT_EQ(summed.engine_rebuilds, stage.counters.engine_rebuilds)
        << stage.name;
    EXPECT_EQ(summed.engine_term_refreshes,
              stage.counters.engine_term_refreshes)
        << stage.name;
  }
  return iterations;
}

TEST(Pipeline, HandDrivenBdmaLoopMatchesPolicyPaperScale) {
  PolicyParams params;  // z = 5, V = 100 on the §VI-A scenario
  const std::size_t slots = 6;
  const std::uint64_t iterations =
      expect_hand_loop_matches_policy(ScenarioConfig{}, slots, params, 0);
  // The exit fired somewhere, so the comparison covers the no-op halves.
  EXPECT_LT(iterations, params.bdma_iterations * slots);
}

TEST(Pipeline, HandDrivenBdmaLoopMatchesPolicySharded) {
  ScenarioConfig config;
  config.devices = 640;
  config.metro_districts = 64;
  config.servers_per_cluster = 2;
  PolicyParams params;
  params.shard_workers = 1;
  const std::size_t slots = 2;
  const std::uint64_t iterations =
      expect_hand_loop_matches_policy(config, slots, params,
                                      config.metro_districts);
  EXPECT_LT(iterations, params.bdma_iterations * slots);
}

TEST(Pipeline, AuditTapFiresOncePerSlot) {
  Scenario scenario(tiny(9));
  const auto states = scenario.generate_states(4);
  auto policy = make_policy("greedy-budget", scenario.instance());
  auto* graph = dynamic_cast<PolicyGraph*>(policy.get());
  ASSERT_NE(graph, nullptr);
  auto* tap_stage = dynamic_cast<AuditTapStage*>(graph->find_stage("audit_tap"));
  ASSERT_NE(tap_stage, nullptr);
  std::size_t taps = 0;
  tap_stage->set_tap([&](const StageContext& ctx) {
    ++taps;
    EXPECT_NE(ctx.state, nullptr);
    EXPECT_FALSE(ctx.frequencies.empty());
  });
  util::Rng rng(1);
  for (const auto& state : states) (void)policy->step(state, rng);
  EXPECT_EQ(taps, states.size());
}

// ---- Typed-port validation ------------------------------------------------

// A configurable mock stage for exercising the construction-time checks.
class MockStage final : public Stage {
 public:
  MockStage(const char* name, std::vector<PortSpec> inputs,
            std::vector<PortSpec> outputs)
      : name_(name), inputs_(std::move(inputs)), outputs_(std::move(outputs)) {}

  [[nodiscard]] const char* name() const override { return name_; }
  [[nodiscard]] const char* span_name() const override { return "stage/mock"; }
  [[nodiscard]] std::vector<PortSpec> inputs() const override {
    return inputs_;
  }
  [[nodiscard]] std::vector<PortSpec> outputs() const override {
    return outputs_;
  }
  void run(StageContext&) override {}

 private:
  const char* name_;
  std::vector<PortSpec> inputs_;
  std::vector<PortSpec> outputs_;
};

std::string construction_error(std::vector<std::unique_ptr<Stage>> stages,
                               const core::Instance& instance,
                               LoopSpec loop = {}) {
  try {
    PolicyGraph graph("test-graph", instance, std::move(stages), loop);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Pipeline, MissingInputPortFailsConstructionDescriptively) {
  Scenario scenario(tiny(3));
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<MockStage>(
      "producer", std::vector<PortSpec>{},
      std::vector<PortSpec>{{"queue", PortType::kQueue}}));
  stages.push_back(std::make_unique<MockStage>(
      "consumer",
      std::vector<PortSpec>{{"frequencies", PortType::kFrequencies}},
      std::vector<PortSpec>{}));
  const std::string message =
      construction_error(std::move(stages), scenario.instance());
  // Names the graph, the failing stage, the missing port, and what exists.
  EXPECT_NE(message.find("test-graph"), std::string::npos) << message;
  EXPECT_NE(message.find("consumer"), std::string::npos) << message;
  EXPECT_NE(message.find("frequencies"), std::string::npos) << message;
  EXPECT_NE(message.find("not produced"), std::string::npos) << message;
  EXPECT_NE(message.find("queue (Queue)"), std::string::npos) << message;
}

TEST(Pipeline, TypeMismatchFailsConstructionDescriptively) {
  Scenario scenario(tiny(3));
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<MockStage>(
      "producer", std::vector<PortSpec>{},
      std::vector<PortSpec>{{"payload", PortType::kQueue}}));
  stages.push_back(std::make_unique<MockStage>(
      "consumer", std::vector<PortSpec>{{"payload", PortType::kFrequencies}},
      std::vector<PortSpec>{}));
  const std::string message =
      construction_error(std::move(stages), scenario.instance());
  EXPECT_NE(message.find("consumer"), std::string::npos) << message;
  EXPECT_NE(message.find("payload"), std::string::npos) << message;
  EXPECT_NE(message.find("mismatched type"), std::string::npos) << message;
  EXPECT_NE(message.find("Queue"), std::string::npos) << message;
  EXPECT_NE(message.find("Frequencies"), std::string::npos) << message;
}

TEST(Pipeline, OrderMattersOutsideTheLoopRegion) {
  // The same two stages connect fine producer-first and fail consumer-first
  // (no loop region to carry the dependency backwards).
  Scenario scenario(tiny(3));
  auto producer = [] {
    return std::make_unique<MockStage>(
        "producer", std::vector<PortSpec>{},
        std::vector<PortSpec>{{"queue", PortType::kQueue}});
  };
  auto consumer = [] {
    return std::make_unique<MockStage>(
        "consumer", std::vector<PortSpec>{{"queue", PortType::kQueue}},
        std::vector<PortSpec>{});
  };
  std::vector<std::unique_ptr<Stage>> good;
  good.push_back(producer());
  good.push_back(consumer());
  EXPECT_NO_THROW(PolicyGraph("test-graph", scenario.instance(),
                              std::move(good)));
  std::vector<std::unique_ptr<Stage>> bad;
  bad.push_back(consumer());
  bad.push_back(producer());
  EXPECT_FALSE(
      construction_error(std::move(bad), scenario.instance()).empty());
}

TEST(Pipeline, LoopRegionAllowsLoopCarriedDependencies) {
  // Inside [first, last] a later stage may feed an earlier one (P2-B's Ω
  // into the next P2-A pass); the identical wiring fails without the loop.
  Scenario scenario(tiny(3));
  auto forward = [] {
    return std::make_unique<MockStage>(
        "forward", std::vector<PortSpec>{{"omega", PortType::kFrequencies}},
        std::vector<PortSpec>{{"plan", PortType::kAssignment}});
  };
  auto backward = [] {
    return std::make_unique<MockStage>(
        "backward", std::vector<PortSpec>{{"plan", PortType::kAssignment}},
        std::vector<PortSpec>{{"omega", PortType::kFrequencies}});
  };
  LoopSpec loop;
  loop.first = 0;
  loop.last = 1;
  loop.iterations = 2;
  std::vector<std::unique_ptr<Stage>> looped;
  looped.push_back(forward());
  looped.push_back(backward());
  EXPECT_NO_THROW(PolicyGraph("test-graph", scenario.instance(),
                              std::move(looped), loop));
  std::vector<std::unique_ptr<Stage>> straight;
  straight.push_back(forward());
  straight.push_back(backward());
  EXPECT_FALSE(
      construction_error(std::move(straight), scenario.instance()).empty());
}

TEST(Pipeline, OutOfRangeLoopRegionFailsConstruction) {
  Scenario scenario(tiny(3));
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(std::make_unique<MockStage>(
      "only", std::vector<PortSpec>{}, std::vector<PortSpec>{}));
  LoopSpec loop;
  loop.first = 0;
  loop.last = 5;
  loop.iterations = 2;
  const std::string message =
      construction_error(std::move(stages), scenario.instance(), loop);
  EXPECT_NE(message.find("loop region"), std::string::npos) << message;
}

}  // namespace
}  // namespace eotora::sim::pipeline
