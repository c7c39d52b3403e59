// Property/fuzz coverage for the sharded P2-A layer (core/sharded +
// WcgProblem::components / extract_component):
//   - the union-find component finder against a naive label-propagation
//     oracle over 25 random multi-component instances;
//   - extract_component repacking each component bit-for-bit;
//   - cgba_sharded == cgba and mcba_sharded == mcba EXACTLY (EXPECT_EQ on
//     doubles) — the paper-figure reproducibility guarantee extends to the
//     sharded drivers for every worker count;
//   - per-shard counters partitioning the solve's flushed totals;
//   - the workspace shard cache: shards patched in place across rebuilds,
//     frequency changes, structure changes, alternating problems and a
//     problem re-created at one address all equal a fresh extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/cgba.h"
#include "core/counters.h"
#include "core/mcba.h"
#include "core/sharded.h"
#include "core/wcg.h"
#include "energy/quadratic_energy.h"
#include "sim/scenario.h"
#include "test_helpers.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace eotora::core {
namespace {

// A topology made of 1-3 isolated station groups: each group has its own
// cluster (1-3 servers) and 1-2 stations wired only to that cluster. The
// channel states below zero out every cross-group link, so the WCG
// decomposes along group lines — one component per group that has devices.
struct GroupedWorld {
  std::shared_ptr<topology::Topology> topology;
  std::size_t groups = 0;
  std::vector<std::size_t> station_group;
  std::vector<std::size_t> device_group;
};

GroupedWorld random_grouped_world(util::Rng& rng) {
  GroupedWorld world;
  topology::TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  world.groups = 1 + rng.index(3);
  auto model = std::make_shared<energy::QuadraticEnergy>(
      rng.uniform(1.0, 8.0), rng.uniform(0.0, 5.0), rng.uniform(5.0, 40.0));
  std::size_t servers = 0;
  std::size_t stations = 0;
  for (std::size_t g = 0; g < world.groups; ++g) {
    const topology::ClusterId cluster = builder.add_cluster(
        test::numbered("c", g),
        {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
    const std::size_t count = 1 + rng.index(3);
    for (std::size_t j = 0; j < count; ++j) {
      const double lo = rng.uniform(1.0, 2.5);
      builder.add_server(test::numbered("s", servers++), cluster,
                         rng.bernoulli(0.5) ? 64 : 128, lo,
                         lo + rng.uniform(0.5, 1.5), model);
    }
    const std::size_t local_stations = 1 + rng.index(2);
    for (std::size_t k = 0; k < local_stations; ++k) {
      builder.add_base_station(
          test::numbered("b", stations),
          {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)},
          topology::Band::kLow, 3000.0, rng.uniform(50e6, 100e6),
          rng.uniform(0.5e9, 1e9), 10.0, {cluster});
      world.station_group.push_back(g);
      ++stations;
    }
  }
  const std::size_t devices = 4 + rng.index(9);
  for (std::size_t i = 0; i < devices; ++i) {
    builder.add_device(test::numbered("d", i),
                       {rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)});
    world.device_group.push_back(rng.index(world.groups));
  }
  world.topology = std::make_shared<topology::Topology>(builder.build());
  return world;
}

// Random state whose channel matrix only links a device to its own group's
// stations (at least one of them).
SlotState grouped_state(const GroupedWorld& world, util::Rng& rng) {
  const topology::Topology& topo = *world.topology;
  SlotState state;
  state.slot = 0;
  const std::size_t devices = topo.num_devices();
  const std::size_t stations = topo.num_base_stations();
  state.task_cycles.resize(devices);
  state.data_bits.resize(devices);
  state.channel.assign(devices, std::vector<double>(stations, 0.0));
  for (std::size_t i = 0; i < devices; ++i) {
    state.task_cycles[i] = rng.uniform(1e7, 5e8);
    state.data_bits[i] = rng.uniform(1e6, 2e7);
    const std::size_t group = world.device_group[i];
    std::vector<std::size_t> own;
    for (std::size_t k = 0; k < stations; ++k) {
      if (world.station_group[k] != group) continue;
      own.push_back(k);
      if (rng.bernoulli(0.7)) state.channel[i][k] = rng.uniform(15.0, 50.0);
    }
    bool any = false;
    for (const std::size_t k : own) any = any || state.channel[i][k] > 0.0;
    if (!any) state.channel[i][own[rng.index(own.size())]] =
        rng.uniform(15.0, 50.0);
  }
  state.price_per_mwh = rng.uniform(5.0, 300.0);
  return state;
}

// Naive component oracle: label propagation to a fixpoint over the
// device + resource node set — a different algorithm from the path-halving
// union-find sweep in WcgProblem::components(). Components are renumbered
// densely in order of first device appearance, matching the contract.
struct OracleComponents {
  std::size_t count = 0;
  std::vector<std::uint32_t> device_component;
  std::vector<std::uint32_t> resource_component;  // kNone if untouched
};

OracleComponents brute_force_components(const WcgProblem& problem) {
  const std::size_t devices = problem.num_devices();
  const std::size_t resources = problem.num_resources();
  std::vector<std::size_t> device_label(devices);
  std::vector<std::size_t> resource_label(resources);
  std::vector<bool> touched(resources, false);
  for (std::size_t i = 0; i < devices; ++i) device_label[i] = i;
  for (std::size_t r = 0; r < resources; ++r) resource_label[r] = devices + r;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < devices; ++i) {
      for (const Option& opt : problem.options(i)) {
        touched[opt.r_compute] = true;
        touched[opt.r_access] = true;
        touched[opt.r_fronthaul] = true;
        const std::size_t m =
            std::min({device_label[i], resource_label[opt.r_compute],
                      resource_label[opt.r_access],
                      resource_label[opt.r_fronthaul]});
        for (std::size_t* label :
             {&device_label[i], &resource_label[opt.r_compute],
              &resource_label[opt.r_access],
              &resource_label[opt.r_fronthaul]}) {
          if (*label != m) {
            *label = m;
            changed = true;
          }
        }
      }
    }
  }
  OracleComponents oracle;
  oracle.device_component.assign(devices, WcgComponents::kNone);
  oracle.resource_component.assign(resources, WcgComponents::kNone);
  std::vector<std::uint32_t> label_component(devices + resources,
                                             WcgComponents::kNone);
  for (std::size_t i = 0; i < devices; ++i) {
    if (label_component[device_label[i]] == WcgComponents::kNone) {
      label_component[device_label[i]] =
          static_cast<std::uint32_t>(oracle.count++);
    }
    oracle.device_component[i] = label_component[device_label[i]];
  }
  for (std::size_t r = 0; r < resources; ++r) {
    if (!touched[r]) continue;
    oracle.resource_component[r] = label_component[resource_label[r]];
  }
  return oracle;
}

class ShardedFuzz : public ::testing::TestWithParam<int> {};

// components() against the label-propagation oracle, plus internal
// consistency of the CSR membership lists and resource_local.
TEST_P(ShardedFuzz, ComponentFinderMatchesBruteForceOracle) {
  util::Rng rng(110'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  const WcgComponents& split = problem.components();
  const OracleComponents oracle = brute_force_components(problem);
  ASSERT_EQ(split.count, oracle.count);
  ASSERT_GE(split.count, 1u);
  for (std::size_t i = 0; i < devices; ++i) {
    EXPECT_EQ(split.device_component[i], oracle.device_component[i])
        << "device " << i;
  }
  for (std::size_t r = 0; r < problem.num_resources(); ++r) {
    EXPECT_EQ(split.resource_component[r], oracle.resource_component[r])
        << "resource " << r;
  }

  // Membership lists are an ascending partition consistent with the maps,
  // and resource_local is each resource's rank inside its component's run.
  std::size_t total_devices = 0;
  std::size_t total_resources = 0;
  for (std::size_t c = 0; c < split.count; ++c) {
    const auto members = split.devices_of(c);
    ASSERT_FALSE(members.empty()) << "component " << c;
    for (std::size_t t = 0; t < members.size(); ++t) {
      EXPECT_EQ(split.device_component[members[t]], c);
      if (t > 0) { EXPECT_LT(members[t - 1], members[t]); }
    }
    total_devices += members.size();
    const auto resources = split.resources_of(c);
    for (std::size_t t = 0; t < resources.size(); ++t) {
      EXPECT_EQ(split.resource_component[resources[t]], c);
      EXPECT_EQ(split.resource_local[resources[t]], t);
      if (t > 0) { EXPECT_LT(resources[t - 1], resources[t]); }
    }
    total_resources += resources.size();
  }
  EXPECT_EQ(total_devices, devices);
  std::size_t touched = 0;
  for (std::size_t r = 0; r < problem.num_resources(); ++r) {
    if (split.resource_component[r] != WcgComponents::kNone) ++touched;
  }
  EXPECT_EQ(total_resources, touched);
}

// extract_component repacks every component bit-for-bit: same option
// magnitudes in the same per-device order, same resource weights under the
// id remap, and a cost evaluation that reproduces the parent's arithmetic.
TEST_P(ShardedFuzz, ExtractComponentRepacksBitForBit) {
  util::Rng rng(120'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  const WcgComponents& split = problem.components();
  WcgProblem sub;
  for (std::size_t c = 0; c < split.count; ++c) {
    problem.extract_component(split, c, sub);
    const auto members = split.devices_of(c);
    ASSERT_EQ(sub.num_devices(), members.size());
    ASSERT_EQ(sub.num_resources(), split.resources_of(c).size());
    for (std::size_t local = 0; local < members.size(); ++local) {
      const auto global_options = problem.options(members[local]);
      const auto local_options = sub.options(local);
      ASSERT_EQ(local_options.size(), global_options.size());
      for (std::size_t o = 0; o < global_options.size(); ++o) {
        EXPECT_EQ(local_options[o].p_compute, global_options[o].p_compute);
        EXPECT_EQ(local_options[o].p_access, global_options[o].p_access);
        EXPECT_EQ(local_options[o].p_fronthaul,
                  global_options[o].p_fronthaul);
        EXPECT_EQ(local_options[o].r_compute,
                  split.resource_local[global_options[o].r_compute]);
        EXPECT_EQ(local_options[o].r_access,
                  split.resource_local[global_options[o].r_access]);
        EXPECT_EQ(local_options[o].r_fronthaul,
                  split.resource_local[global_options[o].r_fronthaul]);
      }
    }
    for (const std::uint32_t r : split.resources_of(c)) {
      EXPECT_EQ(sub.weight(split.resource_local[r]), problem.weight(r));
    }
  }
}

// The sharded CGBA driver is bit-identical to the global solve under both
// selection rules, and its own bits do not depend on the worker count.
TEST_P(ShardedFuzz, CgbaShardedEqualsGlobalBothSelectionModes) {
  util::Rng rng(130'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  for (const CgbaSelection selection :
       {CgbaSelection::kMaxGap, CgbaSelection::kRoundRobin}) {
    CgbaConfig config;
    config.selection = selection;
    const unsigned seed = 140'000 + GetParam();
    util::Rng rng_global(seed);
    util::Rng rng_one(seed);
    util::Rng rng_eight(seed);
    const SolveResult global = cgba(problem, config, rng_global);
    const ShardedResult one = cgba_sharded(problem, config, rng_one, 1);
    const ShardedResult eight = cgba_sharded(problem, config, rng_eight, 8);
    ASSERT_GE(one.shards, 1u);
    ASSERT_EQ(one.shards, problem.components().count);
    for (const ShardedResult* sharded : {&one, &eight}) {
      ASSERT_EQ(sharded->result.profile, global.profile);
      ASSERT_EQ(sharded->result.cost, global.cost);  // exact bits
      ASSERT_EQ(sharded->result.iterations, global.iterations);
      ASSERT_EQ(sharded->result.converged, global.converged);
    }
    ASSERT_EQ(one.shards, eight.shards);
    ASSERT_EQ(one.shard_counters.size(), eight.shard_counters.size());
    for (std::size_t c = 0; c < one.shard_counters.size(); ++c) {
      EXPECT_TRUE(one.shard_counters[c] == eight.shard_counters[c]);
    }
  }
}

// Same contract for MCBA: mcba() is the workers==1 sharded driver, and the
// chain seeds are drawn during planning, so the bits cannot depend on the
// worker count.
TEST_P(ShardedFuzz, McbaShardedEqualsGlobal) {
  util::Rng rng(150'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  McbaConfig config;
  config.iterations = 400;
  const unsigned seed = 160'000 + GetParam();
  util::Rng rng_global(seed);
  util::Rng rng_eight(seed);
  const SolveResult global = mcba(problem, config, rng_global);
  const ShardedResult eight = mcba_sharded(problem, config, rng_eight, 8);
  ASSERT_EQ(eight.shards, problem.components().count);
  ASSERT_EQ(eight.result.profile, global.profile);
  ASSERT_EQ(eight.result.cost, global.cost);  // exact bits
  ASSERT_EQ(eight.result.iterations, global.iterations);
  ASSERT_EQ(eight.result.converged, global.converged);
}

// The per-shard counters partition exactly the totals the sharded solve
// flushes into the ambient sink for the in-shard fields.
TEST_P(ShardedFuzz, ShardCountersSumToFlushedTotals) {
  util::Rng rng(170'000 + GetParam());
  const GroupedWorld world = random_grouped_world(rng);
  const std::size_t devices = world.topology->num_devices();
  Instance instance(
      world.topology,
      Instance::random_sigma(devices, world.topology->num_servers(), rng),
      rng.uniform(0.1, 5.0));
  const SlotState state = grouped_state(world, rng);
  const WcgProblem problem(instance, state, instance.max_frequencies());

  counters::SolverCounters observed;
  ShardedResult sharded;
  {
    const counters::Scope scope(observed);
    util::Rng solve_rng(180'000 + GetParam());
    sharded = cgba_sharded(problem, {}, solve_rng, 4);
  }
  counters::SolverCounters summed;
  for (const counters::SolverCounters& shard : sharded.shard_counters) {
    summed.merge(shard);
  }
  EXPECT_EQ(summed.cgba_rounds, observed.cgba_rounds);
  EXPECT_EQ(summed.cgba_moves, observed.cgba_moves);
  EXPECT_EQ(summed.mcba_proposals, observed.mcba_proposals);
  EXPECT_EQ(summed.mcba_accepted, observed.mcba_accepted);
  EXPECT_EQ(summed.engine_rebuilds, observed.engine_rebuilds);
  EXPECT_EQ(summed.engine_term_refreshes, observed.engine_term_refreshes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedFuzz, ::testing::Range(0, 25));

// The paper scenario's low-band stations cover the whole region and reach
// every room, so its WCG is one component — the sharded driver must agree
// and degrade to the global solve (this is why the golden fixtures are
// untouched by sharding).
TEST(ShardedPaperScenario, SingleComponentMatchesGlobal) {
  sim::ScenarioConfig config;
  config.devices = 20;
  sim::Scenario scenario(config);
  const SlotState state = scenario.next_state();
  const Instance& instance = scenario.instance();
  const WcgProblem problem(instance, state, instance.max_frequencies());
  ASSERT_EQ(problem.components().count, 1u);

  util::Rng rng_global(5);
  util::Rng rng_sharded(5);
  const SolveResult global = cgba(problem, {}, rng_global);
  const ShardedResult sharded = cgba_sharded(problem, {}, rng_sharded, 8);
  ASSERT_EQ(sharded.shards, 1u);
  ASSERT_EQ(sharded.result.profile, global.profile);
  ASSERT_EQ(sharded.result.cost, global.cost);
}

// Metro scenarios decompose into exactly one component per district, and
// the confinement boxes keep it that way across slots.
TEST(ShardedMetroScenario, OneComponentPerDistrictAcrossSlots) {
  sim::ScenarioConfig config;
  config.metro_districts = 4;
  config.devices = 32;
  config.servers_per_cluster = 2;
  sim::Scenario scenario(config);
  const Instance& instance = scenario.instance();
  WcgProblem problem;
  for (int slot = 0; slot < 5; ++slot) {
    const SlotState state = scenario.next_state();
    problem.rebuild(instance, state, instance.max_frequencies());
    ASSERT_EQ(problem.components().count, config.metro_districts)
        << "slot " << slot;
  }
}

// Every shard the workspace holds equals a fresh extract_component of the
// problem's current decomposition, bit for bit: options (ids and
// magnitudes), arena spans and weights.
void expect_shards_fresh(const WcgProblem& problem,
                         const ShardedWorkspace& ws) {
  const WcgComponents& split = problem.components();
  ASSERT_GT(split.count, 1u);
  WcgProblem fresh;
  for (std::size_t c = 0; c < split.count; ++c) {
    problem.extract_component(split, c, fresh);
    const WcgProblem& got = ws.problems[c];
    ASSERT_EQ(got.num_devices(), fresh.num_devices()) << "shard " << c;
    ASSERT_EQ(got.num_servers(), fresh.num_servers());
    ASSERT_EQ(got.num_base_stations(), fresh.num_base_stations());
    ASSERT_EQ(got.num_options(), fresh.num_options());
    for (std::size_t i = 0; i <= fresh.num_devices(); ++i) {
      ASSERT_EQ(got.arena_offset(i), fresh.arena_offset(i));
    }
    for (std::size_t a = 0; a < fresh.num_options(); ++a) {
      const Option& x = got.option_at(a);
      const Option& y = fresh.option_at(a);
      EXPECT_EQ(got.device_of(a), fresh.device_of(a));
      EXPECT_EQ(x.bs, y.bs);
      EXPECT_EQ(x.server, y.server);
      EXPECT_EQ(x.r_compute, y.r_compute);
      EXPECT_EQ(x.r_access, y.r_access);
      EXPECT_EQ(x.r_fronthaul, y.r_fronthaul);
      EXPECT_EQ(x.p_compute, y.p_compute) << "shard " << c << " entry " << a;
      EXPECT_EQ(x.p_access, y.p_access);
      EXPECT_EQ(x.p_fronthaul, y.p_fronthaul);
    }
    ASSERT_EQ(got.num_resources(), fresh.num_resources());
    for (std::size_t r = 0; r < fresh.num_resources(); ++r) {
      EXPECT_EQ(got.weight(r), fresh.weight(r)) << "shard " << c;
    }
  }
}

// Runs the sharded CGBA and MCBA drivers through `ws`, requires both to
// equal the global solves bit for bit, then checks the planned shards.
void expect_sharded_matches_global(const WcgProblem& problem,
                                   ShardedWorkspace& ws, unsigned seed) {
  util::Rng cgba_global_rng(seed);
  util::Rng cgba_sharded_rng(seed);
  const SolveResult cgba_global = cgba(problem, {}, cgba_global_rng);
  const ShardedResult cgba_shards =
      cgba_sharded(problem, {}, cgba_sharded_rng, 2, &ws);
  ASSERT_EQ(cgba_shards.result.profile, cgba_global.profile);
  ASSERT_EQ(cgba_shards.result.cost, cgba_global.cost);  // exact bits
  expect_shards_fresh(problem, ws);

  McbaConfig config;
  config.iterations = 200;
  util::Rng mcba_global_rng(seed);
  util::Rng mcba_sharded_rng(seed);
  const SolveResult mcba_global = mcba(problem, config, mcba_global_rng);
  const ShardedResult mcba_shards =
      mcba_sharded(problem, config, mcba_sharded_rng, 2, &ws);
  ASSERT_EQ(mcba_shards.result.profile, mcba_global.profile);
  ASSERT_EQ(mcba_shards.result.cost, mcba_global.cost);
  expect_shards_fresh(problem, ws);
}

// The same link structure as `state` with new magnitudes everywhere.
SlotState rescaled(SlotState state, util::Rng& rng) {
  for (double& f : state.task_cycles) f *= rng.uniform(0.5, 2.0);
  for (double& d : state.data_bits) d *= rng.uniform(0.5, 2.0);
  for (auto& row : state.channel) {
    for (double& h : row) h *= rng.uniform(0.5, 2.0);
  }
  return state;
}

// A grouped world with at least two components and a device covered by two
// or more stations (so dropping one of its links changes the structure).
struct CacheWorld {
  GroupedWorld world;
  std::optional<Instance> instance;
  SlotState state;
  std::size_t two_link_device = 0;
};

CacheWorld cache_world(std::uint64_t first_seed) {
  for (std::uint64_t seed = first_seed;; ++seed) {
    util::Rng rng(seed);
    CacheWorld out;
    out.world = random_grouped_world(rng);
    const std::size_t devices = out.world.topology->num_devices();
    out.instance.emplace(
        out.world.topology,
        Instance::random_sigma(devices, out.world.topology->num_servers(), rng),
        1.0);
    out.state = grouped_state(out.world, rng);
    const WcgProblem probe(*out.instance, out.state,
                           out.instance->max_frequencies());
    if (probe.components().count < 2) continue;
    for (std::size_t i = 0; i < devices; ++i) {
      const auto& row = out.state.channel[i];
      if (std::count_if(row.begin(), row.end(),
                        [](double h) { return h > 0.0; }) >= 2) {
        out.two_link_device = i;
        return out;
      }
    }
  }
}

// One workspace carried through every way the planned shards can go stale;
// each step must leave shards equal to a fresh extraction and sharded
// solves equal to the global ones. The version ids show which path ran.
TEST(ShardCache, PatchedShardsEqualFreshExtraction) {
  const CacheWorld a = cache_world(900);
  const Instance& instance = *a.instance;
  util::Rng rng(901);
  ShardedWorkspace ws;
  WcgProblem problem(instance, a.state, instance.max_frequencies());
  expect_sharded_matches_global(problem, ws, 1);
  const std::uint64_t structure = ws.structure_version;

  // (1) Same-structure rebuild with new state: the decomposition is reused
  // and the shards are patched, not re-extracted.
  problem.rebuild(instance, rescaled(a.state, rng),
                  instance.min_frequencies());
  expect_sharded_matches_global(problem, ws, 2);
  EXPECT_EQ(ws.structure_version, structure);
  EXPECT_EQ(ws.values_version, problem.values_version());

  // (2) A set_frequencies-only change: only the weights move.
  const std::uint64_t values = ws.values_version;
  problem.set_frequencies(instance, instance.max_frequencies());
  expect_sharded_matches_global(problem, ws, 3);
  EXPECT_EQ(ws.structure_version, structure);
  EXPECT_EQ(ws.values_version, values);
  EXPECT_EQ(ws.weights_version, problem.weights_version());

  // (3) A rebuild that changes structure: one device loses a station.
  SlotState dropped = rescaled(a.state, rng);
  auto& row = dropped.channel[a.two_link_device];
  *std::find_if(row.begin(), row.end(), [](double h) { return h > 0.0; }) =
      0.0;
  problem.rebuild(instance, dropped, instance.max_frequencies());
  expect_sharded_matches_global(problem, ws, 4);
  EXPECT_NE(ws.structure_version, structure);

  // (4) Two different problems alternating on one workspace: another world,
  // and a twin of `problem` with the same links but other magnitudes.
  const CacheWorld b = cache_world(950);
  const WcgProblem other(*b.instance, b.state, b.instance->max_frequencies());
  const WcgProblem twin(instance, rescaled(dropped, rng),
                        instance.max_frequencies());
  for (int round = 0; round < 2; ++round) {
    expect_sharded_matches_global(other, ws, 5);
    expect_sharded_matches_global(problem, ws, 6);
    expect_sharded_matches_global(twin, ws, 7);
  }

  // (5) A problem destroyed and re-created at the same address with the
  // same structure but new magnitudes.
  std::optional<WcgProblem> slot;
  slot.emplace(instance, a.state, instance.max_frequencies());
  const WcgProblem* address = &*slot;
  expect_sharded_matches_global(*slot, ws, 8);
  slot.reset();
  slot.emplace(instance, rescaled(a.state, rng), instance.max_frequencies());
  ASSERT_EQ(&*slot, address);
  expect_sharded_matches_global(*slot, ws, 9);
}

// A rebuild onto another instance whose options are the same (bs, server)
// pairs but whose resource layout differs — one more server, in a room no
// station reaches, shifts every station's resource ids — must re-find the
// decomposition (and so draw a new structure version), not reuse it.
TEST(ShardCache, StructureReuseRequiresSameResourceLayout) {
  const auto instance_with = [](bool dark_server) {
    topology::TopologyBuilder builder;
    builder.set_region({1000.0, 1000.0});
    const auto room = builder.add_cluster("room", {250.0, 250.0});
    auto model = std::make_shared<energy::QuadraticEnergy>(5.0, 2.0, 20.0);
    builder.add_server("s0", room, 64, 1.8, 3.6, model);
    if (dark_server) {
      builder.add_server("s1", builder.add_cluster("dark", {750.0, 750.0}),
                         64, 1.8, 3.6, model);
    }
    builder.add_base_station("bs", {500.0, 500.0}, topology::Band::kLow,
                             2000.0, 80e6, 0.8e9, 10.0, {room});
    for (std::size_t i = 0; i < 3; ++i) {
      builder.add_device(test::numbered("d", i), {400.0, 400.0});
    }
    auto topo = std::make_shared<topology::Topology>(builder.build());
    SuitabilityMatrix sigma(3, std::vector<double>(topo->num_servers(), 1.0));
    return Instance(topo, std::move(sigma), 5.0);
  };
  const Instance narrow = instance_with(false);
  const Instance wide = instance_with(true);
  const SlotState state = test::uniform_state(3, 1);

  WcgProblem problem(narrow, state, narrow.max_frequencies());
  (void)problem.components();
  const std::uint64_t before = problem.structure_version();
  problem.rebuild(wide, state, wide.max_frequencies());
  const WcgProblem fresh(wide, state, wide.max_frequencies());
  const WcgComponents& got = problem.components();
  EXPECT_NE(problem.structure_version(), before);
  EXPECT_EQ(got.resource_component, fresh.components().resource_component);
  EXPECT_EQ(got.resource_local, fresh.components().resource_local);
}

TEST(ShardedMetroScenario, RejectsNonSquareGridAndGaussMarkov) {
  sim::ScenarioConfig config;
  config.metro_districts = 6;  // not a perfect square
  config.devices = 12;
  EXPECT_THROW(sim::Scenario{config}, std::invalid_argument);
  config.metro_districts = 4;
  config.mobility = sim::ScenarioConfig::Mobility::kGaussMarkov;
  EXPECT_THROW(sim::Scenario{config}, std::invalid_argument);
}

}  // namespace
}  // namespace eotora::core
