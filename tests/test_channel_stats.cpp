// Statistical properties of the channel model and long-run scenario
// invariants (coverage under mobility, state stream health).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "energy/quadratic_energy.h"
#include "sim/scenario.h"
#include "topology/builder.h"
#include "topology/channel_model.h"
#include "topology/mobility.h"
#include "trace/decompose.h"
#include "util/rng.h"
#include "util/stats.h"

namespace eotora::topology {
namespace {

std::unique_ptr<Topology> wide_topology() {
  TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room = builder.add_cluster("room", {500.0, 500.0});
  builder.add_server("s", room, 64, 1.8, 3.6,
                     std::make_shared<energy::QuadraticEnergy>(5.0, 2.0,
                                                               20.0));
  builder.add_base_station("bs", {500.0, 500.0}, Band::kLow, 2000.0, 75e6,
                           0.7e9, 10.0, {room});
  builder.add_device("d", {500.0, 500.0});
  return std::make_unique<Topology>(builder.build());
}

TEST(ChannelStats, ShadowingIsAutocorrelated) {
  auto topo = wide_topology();
  ChannelConfig config;
  config.shadowing_rho = 0.9;
  config.shadowing_stddev = 2.0;
  // Wide efficiency band so the clamp rarely bites and the AR(1) signal
  // survives in the output.
  config.min_efficiency = 1.0;
  config.max_efficiency = 200.0;
  ChannelModel channel(config, *topo, util::Rng(1));
  std::vector<double> series;
  for (int t = 0; t < 3000; ++t) {
    series.push_back(channel.step(*topo)[0][0]);
  }
  const double acf1 = trace::autocorrelation(series, 1);
  const double acf10 = trace::autocorrelation(series, 10);
  EXPECT_GT(acf1, 0.7);        // strong slot-to-slot memory
  EXPECT_GT(acf1, acf10);      // decaying with lag
  EXPECT_LT(acf10, 0.6);
}

TEST(ChannelStats, ZeroShadowingIsDeterministicForStaticDevice) {
  auto topo = wide_topology();
  ChannelConfig config;
  config.shadowing_stddev = 0.0;
  ChannelModel channel(config, *topo, util::Rng(2));
  const double first = channel.step(*topo)[0][0];
  for (int t = 0; t < 10; ++t) {
    EXPECT_DOUBLE_EQ(channel.step(*topo)[0][0], first);
  }
}

TEST(ChannelStats, EfficiencyDecreasesWithDistanceOnAverage) {
  TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room = builder.add_cluster("room", {0.0, 0.0});
  builder.add_server("s", room, 64, 1.8, 3.6,
                     std::make_shared<energy::QuadraticEnergy>(5.0, 2.0,
                                                               20.0));
  builder.add_base_station("bs", {0.0, 0.0}, Band::kLow, 1000.0, 75e6, 0.7e9,
                           10.0, {room});
  builder.add_device("near", {50.0, 0.0});
  builder.add_device("far", {900.0, 0.0});
  Topology topo = builder.build();
  ChannelConfig config;
  config.shadowing_stddev = 1.0;
  // Widen the band so attenuation is visible through the clamp.
  config.min_efficiency = 1.0;
  config.max_efficiency = 100.0;
  ChannelModel channel(config, topo, util::Rng(3));
  util::RunningStats near_stats;
  util::RunningStats far_stats;
  for (int t = 0; t < 500; ++t) {
    const auto h = channel.step(topo);
    near_stats.add(h[0][0]);
    far_stats.add(h[1][0]);
  }
  EXPECT_GT(near_stats.mean(), far_stats.mean());
}

// Drives the scenario's topology through `slots` box-confined mobility
// steps and checks that a channel built with the boxes (never-coverable
// pairs skipped) matches one built without them: every h and the final rng
// state. Returns the boxed model's coverable pair count.
std::size_t expect_skip_matches_full(const sim::ScenarioConfig& config,
                                     const std::vector<BoundingBox>& boxes,
                                     std::size_t slots) {
  const sim::Scenario scenario(config);
  Topology topo = scenario.topology();
  ChannelModel boxed(config.channel, topo, util::Rng(config.seed), boxes);
  ChannelModel full(config.channel, topo, util::Rng(config.seed));
  RandomWaypointMobility mobility(
      MobilityConfig{config.mobility_slot_seconds, 0.1}, config.devices,
      util::Rng(config.seed + 1));
  mobility.set_bounding_boxes(boxes);
  ChannelMatrix h_boxed;
  ChannelMatrix h_full;
  for (std::size_t t = 0; t < slots; ++t) {
    mobility.step(topo);
    boxed.step_into(topo, h_boxed);
    full.step_into(topo, h_full);
    EXPECT_EQ(h_boxed, h_full) << "slot " << t;
    if (h_boxed != h_full) break;
  }
  EXPECT_TRUE(boxed.rng().engine() == full.rng().engine());
  return boxed.coverable_pairs();
}

TEST(ChannelModel, SkipNeverCoverableMatchesFull) {
  for (const std::size_t districts : {4u, 16u, 64u}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      for (const double slot_seconds : {120.0, 600.0}) {
        SCOPED_TRACE(::testing::Message()
                     << districts << " districts, seed " << seed << ", "
                     << slot_seconds << " s/slot");
        sim::ScenarioConfig config;
        config.metro_districts = districts;
        config.devices = 8 * districts;
        config.seed = seed;
        config.mobility_slot_seconds = slot_seconds;
        const std::size_t coverable = expect_skip_matches_full(
            config, sim::metro_device_boxes(config), 60);
        // Exactly the own-district stations survive the proof.
        EXPECT_EQ(coverable, config.devices * config.stations_per_district);
      }
    }
  }
}

TEST(ChannelModel, PaperTopologySkipsNothing) {
  // Whole-region boxes: the low-band umbrella covers everything and every
  // mid-band cell sits inside the region, so no pair is provably dark.
  sim::ScenarioConfig config;
  config.devices = 40;
  config.seed = 9;
  config.mid_band_coverage_scale = 0.5;
  const std::vector<BoundingBox> boxes(
      config.devices, BoundingBox{0.0, 0.0, config.region_m, config.region_m});
  const std::size_t stations =
      config.mid_band_stations + config.low_band_stations;
  EXPECT_EQ(expect_skip_matches_full(config, boxes, 60),
            config.devices * stations);
}

// One mid-band cell of radius 100 m at (500, 500) and one device.
std::unique_ptr<Topology> single_cell_topology(Point device) {
  TopologyBuilder builder;
  builder.set_region({1000.0, 1000.0});
  const auto room = builder.add_cluster("room", {500.0, 500.0});
  builder.add_server("s", room, 64, 1.8, 3.6,
                     std::make_shared<energy::QuadraticEnergy>(5.0, 2.0,
                                                               20.0));
  builder.add_base_station("bs", {500.0, 500.0}, Band::kMid, 100.0, 75e6,
                           0.7e9, 10.0, {room});
  builder.add_device("d", device);
  return std::make_unique<Topology>(builder.build());
}

TEST(ChannelModel, BoxTouchingCoverageEdgeStaysCoverable) {
  auto topo = single_cell_topology({600.0, 500.0});
  // The box's nearest point is exactly on the coverage edge.
  ChannelModel touching(ChannelConfig{}, *topo, util::Rng(1),
                        {BoundingBox{600.0, 450.0, 700.0, 550.0}});
  EXPECT_EQ(touching.coverable_pairs(), 1u);
  EXPECT_GT(touching.step(*topo)[0][0], 0.0);  // d == radius is covered

  // A millimetre past the edge is provably dark, and skipping it keeps the
  // stream of a model that draws it.
  topo->set_device_position(DeviceId{0}, {650.0, 500.0});
  ChannelModel beyond(ChannelConfig{}, *topo, util::Rng(2),
                      {BoundingBox{600.001, 450.0, 700.0, 550.0}});
  ChannelModel full(ChannelConfig{}, *topo, util::Rng(2));
  EXPECT_EQ(beyond.coverable_pairs(), 0u);
  for (int t = 0; t < 5; ++t) {
    EXPECT_EQ(beyond.step(*topo), full.step(*topo));
  }
  EXPECT_TRUE(beyond.rng().engine() == full.rng().engine());
}

TEST(ChannelModel, DeviceOutsideItsBoxFailsFast) {
  auto topo = single_cell_topology({600.0, 500.0});
  ChannelModel model(ChannelConfig{}, *topo, util::Rng(1),
                     {BoundingBox{550.0, 450.0, 650.0, 550.0}});
  (void)model.step(*topo);
  topo->set_device_position(DeviceId{0}, {700.0, 500.0});
  EXPECT_THROW((void)model.step(*topo), std::invalid_argument);
  // One box per device, or none.
  EXPECT_THROW(ChannelModel(ChannelConfig{}, *topo, util::Rng(1),
                            std::vector<BoundingBox>(2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace eotora::topology

namespace eotora::sim {
namespace {

TEST(ScenarioLongRun, EveryDeviceAlwaysHasAFeasibleOption) {
  ScenarioConfig config;
  config.devices = 20;
  config.seed = 77;
  Scenario scenario(config);
  for (int t = 0; t < 500; ++t) {
    const auto state = scenario.next_state();
    for (std::size_t i = 0; i < 20; ++i) {
      bool usable = false;
      for (double h : state.channel[i]) usable = usable || h > 0.0;
      ASSERT_TRUE(usable) << "device " << i << " slot " << t;
    }
  }
}

TEST(ScenarioLongRun, PriceSeriesKeepsDiurnalStructure) {
  ScenarioConfig config;
  config.devices = 5;
  config.mid_band_stations = 1;
  config.clusters = 1;
  config.servers_per_cluster = 2;
  config.seed = 11;
  Scenario scenario(config);
  std::vector<double> prices;
  for (int t = 0; t < 24 * 30; ++t) {
    prices.push_back(scenario.next_state().price_per_mwh);
  }
  EXPECT_GT(trace::autocorrelation(prices, 24),
            trace::autocorrelation(prices, 7));
  EXPECT_GT(trace::autocorrelation(prices, 24), 0.3);
}

TEST(ScenarioLongRun, MidBandCoverageActuallyFluctuates) {
  // Mobility should move devices in and out of mid-band cells over time —
  // otherwise the base-station-selection decision is trivial.
  ScenarioConfig config;
  config.devices = 10;
  config.seed = 13;
  Scenario scenario(config);
  const std::size_t low_band = config.low_band_stations;
  int transitions = 0;
  std::vector<bool> covered_before(10, false);
  for (int t = 0; t < 300; ++t) {
    const auto state = scenario.next_state();
    for (std::size_t i = 0; i < 10; ++i) {
      bool covered = false;
      for (std::size_t k = low_band; k < state.channel[i].size(); ++k) {
        covered = covered || state.channel[i][k] > 0.0;
      }
      if (t > 0 && covered != covered_before[i]) ++transitions;
      covered_before[i] = covered;
    }
  }
  EXPECT_GT(transitions, 5);
}

}  // namespace
}  // namespace eotora::sim
