#include "sim/mpc_policy.h"

#include <gtest/gtest.h>

#include "core/latency.h"
#include "sim/pipeline/assemblies.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "trace/online_trend.h"

namespace eotora::sim {
namespace {

using pipeline::make_mpc_pipeline;

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.devices = 12;
  config.mid_band_stations = 2;
  config.low_band_stations = 2;
  config.clusters = 2;
  config.servers_per_cluster = 3;
  config.seed = 17;
  config.budget_per_slot = 1.2;
  return config;
}

TEST(Mpc, ProducesFeasibleDecisionsFromSlotOne) {
  Scenario scenario(small_config());
  const auto policy = make_mpc_pipeline(scenario.instance(), MpcConfig{});
  util::Rng rng(1);
  for (int t = 0; t < 30; ++t) {
    const auto state = scenario.next_state();
    const auto slot = policy->step(state, rng);
    EXPECT_TRUE(
        scenario.instance().frequencies_feasible(slot.decision.frequencies));
    EXPECT_TRUE(core::allocation_feasible(scenario.instance(),
                                          slot.decision.assignment,
                                          slot.decision.allocation));
    EXPECT_GT(slot.latency, 0.0);
  }
}

// The plan inputs switch from the bootstrap window of one to the full
// forecast window exactly once every phase of the period has been
// observed, and fresh estimators (what TrendObserveStage::reset installs)
// fall back to the bootstrap.
TEST(Mpc, PlanInputsForecastOnlyAfterOnePeriod) {
  Scenario scenario(small_config());
  const MpcConfig config;
  auto fresh = [&config] {
    return trace::OnlineTrendEstimator(config.period, config.trend_alpha);
  };
  trace::OnlineTrendEstimator price_trend = fresh();
  trace::OnlineTrendEstimator demand_trend = fresh();
  auto observe = [&](const core::SlotState& state) {
    price_trend.observe(state.price_per_mwh);
    double mean_demand = 0.0;
    for (double f : state.task_cycles) mean_demand += f;
    demand_trend.observe(mean_demand /
                         static_cast<double>(state.task_cycles.size()));
  };
  const double budget = scenario.instance().budget_per_slot();
  core::SlotState state;
  for (std::size_t t = 0; t + 1 < config.period; ++t) {
    state = scenario.next_state();
    observe(state);
    const MpcPlanInputs inputs = mpc_plan_inputs(
        config, scenario.instance(), state, price_trend, demand_trend);
    ASSERT_EQ(inputs.prices.size(), 1u) << "slot " << t;
    ASSERT_EQ(inputs.load_scale.size(), 1u) << "slot " << t;
    EXPECT_EQ(inputs.prices[0], state.price_per_mwh) << "slot " << t;
    EXPECT_EQ(inputs.budget, budget) << "slot " << t;
  }
  for (std::size_t t = config.period - 1; t < config.period + 6; ++t) {
    state = scenario.next_state();
    observe(state);
    const MpcPlanInputs inputs = mpc_plan_inputs(
        config, scenario.instance(), state, price_trend, demand_trend);
    ASSERT_EQ(inputs.prices.size(), config.window) << "slot " << t;
    ASSERT_EQ(inputs.load_scale.size(), config.window) << "slot " << t;
    EXPECT_EQ(inputs.prices[0], state.price_per_mwh) << "slot " << t;
    EXPECT_EQ(inputs.load_scale[0], 1.0) << "slot " << t;
    EXPECT_EQ(inputs.budget, budget * static_cast<double>(config.window))
        << "slot " << t;
  }
  price_trend = fresh();
  demand_trend = fresh();
  state = scenario.next_state();
  observe(state);
  const MpcPlanInputs inputs = mpc_plan_inputs(
      config, scenario.instance(), state, price_trend, demand_trend);
  EXPECT_EQ(inputs.prices.size(), 1u);
  EXPECT_EQ(inputs.budget, budget);
}

TEST(Mpc, WindowBudgetRoughlyRespectedOnceForecasting) {
  ScenarioConfig config = small_config();
  Scenario scenario(config);
  const auto policy = make_mpc_pipeline(scenario.instance(), MpcConfig{});
  const auto states = scenario.generate_states(24 * 8);
  util::Rng rng(4);
  policy->reset();
  double tail_cost = 0.0;
  int tail_slots = 0;
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    if (state.slot >= 24 * 4) {  // trends converged
      tail_cost += slot.energy_cost;
      ++tail_slots;
    }
  }
  ASSERT_GT(tail_slots, 0);
  // Certainty-equivalence planning keeps the realized average near the
  // budget (forecast errors allow a modest band).
  EXPECT_LT(tail_cost / tail_slots, config.budget_per_slot * 1.15);
  EXPECT_GT(tail_cost / tail_slots, config.budget_per_slot * 0.5);
}

TEST(Mpc, SpendsMoreInCheapForecastHours) {
  // With a clean price cycle, the planned multiplier is shared across the
  // window, so realized frequencies must anti-correlate with price.
  ScenarioConfig config = small_config();
  config.price.noise_stddev = 1.0;
  config.price.spike_probability = 0.0;
  // A budget strictly between the floor and ceiling cost, so the planned
  // multiplier is positive and the clock actually moves with the price.
  config.budget_per_slot = 0.5;
  Scenario scenario(config);
  const auto policy = make_mpc_pipeline(scenario.instance(), MpcConfig{});
  const auto states = scenario.generate_states(24 * 8);
  util::Rng rng(5);
  policy->reset();
  std::vector<double> prices;
  std::vector<double> clocks;
  for (const auto& state : states) {
    const auto slot = policy->step(state, rng);
    if (state.slot >= 24 * 4) {
      prices.push_back(state.price_per_mwh);
      double mean = 0.0;
      for (double w : slot.decision.frequencies) mean += w;
      clocks.push_back(mean / slot.decision.frequencies.size());
    }
  }
  EXPECT_LT(util::correlation(prices, clocks), -0.1);
}

TEST(Mpc, RejectsBadConfig) {
  Scenario scenario(small_config());
  MpcConfig config;
  config.window = 0;
  EXPECT_THROW((void)make_mpc_pipeline(scenario.instance(), config),
               std::invalid_argument);
  config = {};
  config.bisection_iterations = 0;
  EXPECT_THROW((void)make_mpc_pipeline(scenario.instance(), config),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::sim
