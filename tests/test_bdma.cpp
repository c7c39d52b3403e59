#include "core/bdma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/latency.h"
#include "core/sharded.h"
#include "core/wcg.h"
#include "sim/scenario.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

TEST(Bdma, ProducesFeasibleDecision) {
  util::Rng rng(1);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const BdmaResult result = bdma(instance, state, 100.0, 10.0, BdmaConfig{},
                                 rng);
  EXPECT_TRUE(instance.frequencies_feasible(result.frequencies));
  // Assignment must decode as feasible options.
  const WcgProblem problem(instance, state, result.frequencies);
  EXPECT_NO_THROW((void)problem.to_profile(result.assignment));
  EXPECT_GT(result.latency, 0.0);
}

TEST(Bdma, ReportedLatencyAndThetaAreConsistent) {
  util::Rng rng(2);
  const Instance instance = test::tiny_instance(5);
  const SlotState state = test::random_state(5, 2, rng);
  const double v = 150.0;
  const double q = 40.0;
  const BdmaResult result = bdma(instance, state, v, q, BdmaConfig{}, rng);
  EXPECT_NEAR(result.latency,
              reduced_latency(instance, state, result.assignment,
                              result.frequencies),
              1e-9 * result.latency);
  EXPECT_NEAR(result.theta,
              instance.theta(result.frequencies, state.price_per_mwh), 1e-12);
  EXPECT_NEAR(result.objective, v * result.latency + q * result.theta,
              1e-6 * std::abs(result.objective));
}

TEST(Bdma, MoreIterationsNeverWorseObjective) {
  util::Rng rng(3);
  const Instance instance = test::tiny_instance(8);
  const SlotState state = test::random_state(8, 2, rng);
  BdmaConfig one;
  one.iterations = 1;
  BdmaConfig five;
  five.iterations = 5;
  // Identical rng streams so iteration 1 is shared.
  util::Rng rng_a(77);
  util::Rng rng_b(77);
  const BdmaResult r1 = bdma(instance, state, 100.0, 50.0, one, rng_a);
  const BdmaResult r5 = bdma(instance, state, 100.0, 50.0, five, rng_b);
  EXPECT_LE(r5.objective, r1.objective + 1e-9 * std::abs(r1.objective));
}

TEST(Bdma, ZeroQueueUsesHighFrequencies) {
  util::Rng rng(4);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  const BdmaResult result = bdma(instance, state, 100.0, 0.0, BdmaConfig{},
                                 rng);
  // With Q = 0 the objective ignores energy: every loaded server runs at max.
  const auto hi = instance.max_frequencies();
  std::vector<bool> loaded(instance.num_servers(), false);
  for (std::size_t n : result.assignment.server_of) loaded[n] = true;
  for (std::size_t n = 0; n < instance.num_servers(); ++n) {
    if (loaded[n]) {
      EXPECT_DOUBLE_EQ(result.frequencies[n], hi[n]);
    }
  }
}

TEST(Bdma, SolverKindsAllRun) {
  util::Rng rng(5);
  const Instance instance = test::tiny_instance(6);
  const SlotState state = test::random_state(6, 2, rng);
  for (P2aSolverKind kind : {P2aSolverKind::kCgba, P2aSolverKind::kMcba,
                             P2aSolverKind::kRopt}) {
    BdmaConfig config;
    config.solver = kind;
    config.mcba.iterations = 500;
    const BdmaResult result = bdma(instance, state, 100.0, 20.0, config, rng);
    EXPECT_TRUE(instance.frequencies_feasible(result.frequencies));
    EXPECT_GT(result.latency, 0.0);
  }
}

TEST(Bdma, CgbaBeatsRoptOnAverage) {
  util::Rng rng(6);
  double cgba_total = 0.0;
  double ropt_total = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    const Instance instance = test::tiny_instance(8);
    const SlotState state = test::random_state(8, 2, rng);
    BdmaConfig cgba_config;
    BdmaConfig ropt_config;
    ropt_config.solver = P2aSolverKind::kRopt;
    cgba_total += bdma(instance, state, 100.0, 30.0, cgba_config, rng).latency;
    ropt_total += bdma(instance, state, 100.0, 30.0, ropt_config, rng).latency;
  }
  EXPECT_LT(cgba_total, ropt_total);
}

// Algorithm 2 as the paper states it: all z iterations, no fixed-point
// exit, built from the public solver entry points only.
BdmaResult reference_bdma(const Instance& instance, const SlotState& state,
                          double v, double q, const BdmaConfig& config,
                          util::Rng& rng) {
  BdmaWorkspace workspace;
  BdmaLoopState loop;
  bdma_begin_slot(instance, state, workspace, loop);
  WcgProblem& problem = workspace.problem;
  const std::size_t workers = config.cgba.shard_workers;
  BdmaResult best;
  best.objective = std::numeric_limits<double>::infinity();
  Frequencies omega = loop.omega;
  Profile previous;
  P2bWorkspace p2b_workspace;
  P2bResult p2b;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    if (iter > 0) problem.set_frequencies(instance, omega);
    SolveResult p2a;
    if (workers > 0) {
      p2a = (iter == 0 ? cgba_sharded(problem, config.cgba, rng, workers)
                       : cgba_sharded_from(problem, config.cgba, previous,
                                           workers))
                .result;
    } else {
      p2a = iter == 0 ? cgba(problem, config.cgba, rng)
                      : cgba_from(problem, config.cgba, previous);
    }
    previous = p2a.profile;
    best.p2a_iterations += p2a.iterations;
    const Assignment assignment = problem.to_assignment(p2a.profile);
    solve_p2b(instance, state, assignment, v, q, config.freq_tolerance,
              p2b_workspace, p2b);
    best.objective_history.push_back(p2b.objective);
    if (p2b.objective < best.objective) {
      best.objective = p2b.objective;
      best.assignment = assignment;
      best.frequencies = p2b.frequencies;
    }
    omega = p2b.frequencies;
  }
  best.latency = reduced_latency(instance, state, best.assignment,
                                 best.frequencies);
  best.theta = instance.theta(best.frequencies, state.price_per_mwh);
  return best;
}

// The fixed-point exit changes no result bit: over z, (V, Q), λ, both
// selection rules, global and sharded solves, on a one-component instance
// and a four-district metro instance, bdma() matches the full z-iteration
// reference exactly and leaves the rng where the reference leaves it. Its
// objective history is a prefix of the reference's, and every dropped
// entry repeats the last kept one.
TEST(Bdma, ObjectiveHistoryTracksRunningMinimum) {
  struct Case {
    std::string name;
    Instance instance;
    SlotState state;
  };
  std::vector<Case> cases;
  {
    util::Rng rng(8);
    cases.push_back(Case{"tiny", test::tiny_instance(8),
                         test::random_state(8, 2, rng)});
    sim::ScenarioConfig metro;
    metro.metro_districts = 4;
    metro.devices = 32;
    metro.servers_per_cluster = 2;
    sim::Scenario scenario(metro);
    const SlotState state = scenario.next_state();
    cases.push_back(Case{"metro", scenario.instance(), state});
  }
  const std::pair<double, double> weights[] = {
      {100.0, 40.0}, {100.0, 0.0}, {20.0, 300.0}};
  std::size_t checked = 0;
  std::size_t exited_early = 0;
  std::uint64_t seed = 0;
  for (const Case& c : cases) {
    for (const std::size_t z : {1u, 2u, 3u, 5u, 8u}) {
      for (const auto& [v, q] : weights) {
        for (const double lambda : {0.0, 0.05}) {
          for (const CgbaSelection selection :
               {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
            for (const std::size_t workers : {0u, 1u, 3u}) {
              BdmaConfig config;
              config.iterations = z;
              config.cgba.lambda = lambda;
              config.cgba.selection = selection;
              config.cgba.shard_workers = workers;
              const std::string context =
                  c.name + " z=" + std::to_string(z) +
                  " V=" + std::to_string(v) + " Q=" + std::to_string(q) +
                  " lambda=" + std::to_string(lambda) + " round_robin=" +
                  std::to_string(selection == CgbaSelection::kRoundRobin) +
                  " workers=" + std::to_string(workers);
              ++seed;
              util::Rng rng(seed);
              util::Rng reference_rng(seed);
              const BdmaResult got =
                  bdma(c.instance, c.state, v, q, config, rng);
              const BdmaResult want = reference_bdma(
                  c.instance, c.state, v, q, config, reference_rng);
              EXPECT_EQ(got.assignment.bs_of, want.assignment.bs_of)
                  << context;
              EXPECT_EQ(got.assignment.server_of, want.assignment.server_of)
                  << context;
              EXPECT_EQ(got.frequencies, want.frequencies) << context;
              EXPECT_EQ(got.objective, want.objective) << context;
              EXPECT_EQ(got.latency, want.latency) << context;
              EXPECT_EQ(got.theta, want.theta) << context;
              EXPECT_EQ(got.p2a_iterations, want.p2a_iterations) << context;
              EXPECT_TRUE(rng.engine() == reference_rng.engine()) << context;

              const auto& history = got.objective_history;
              const auto& full = want.objective_history;
              ASSERT_EQ(full.size(), z) << context;
              ASSERT_GE(history.size(), 1u) << context;
              ASSERT_LE(history.size(), z) << context;
              for (std::size_t k = 0; k < full.size(); ++k) {
                const double expected =
                    k < history.size() ? history[k] : history.back();
                EXPECT_EQ(full[k], expected) << context << " k=" << k;
              }
              // Lines 5-8 keep the running minimum of the history.
              EXPECT_EQ(got.objective,
                        *std::min_element(history.begin(), history.end()))
                  << context;
              if (history.size() < z) ++exited_early;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GE(checked, 200u);
  // The exit must actually fire, or this differential checks nothing.
  EXPECT_GT(exited_early, checked / 4);
}

TEST(Bdma, RejectsBadArguments) {
  util::Rng rng(7);
  const Instance instance = test::tiny_instance(2);
  const SlotState state = test::uniform_state(2, 2);
  BdmaConfig config;
  config.iterations = 0;
  EXPECT_THROW((void)bdma(instance, state, 100.0, 0.0, config, rng),
               std::invalid_argument);
  EXPECT_THROW((void)bdma(instance, state, -1.0, 0.0, BdmaConfig{}, rng),
               std::invalid_argument);
  EXPECT_THROW((void)bdma(instance, state, 1.0, -1.0, BdmaConfig{}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
