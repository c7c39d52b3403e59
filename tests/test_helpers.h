// Shared fixtures: small hand-built MEC instances with known structure, used
// across the core solver tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "energy/quadratic_energy.h"
#include "topology/builder.h"
#include "util/rng.h"

namespace eotora::test {

// "<prefix><index>" built with +=: GCC 12 misreports the inlined
// `"literal" + std::to_string(i)` as an overlapping memcpy (-Wrestrict).
inline std::string numbered(const char* prefix, std::size_t index) {
  std::string name = prefix;
  name += std::to_string(index);
  return name;
}

// A deliberately small topology:
//   room-0: server 0 (64c), server 1 (128c)     room-1: server 2 (64c)
//   bs-0 (wide coverage, reaches both rooms)
//   bs-1 (wide coverage, reaches room-1 only)
// Every device is covered by both stations.
inline std::shared_ptr<topology::Topology> tiny_topology(
    std::size_t devices = 3) {
  topology::TopologyBuilder builder;
  builder.set_region(topology::Region{1000.0, 1000.0});
  const auto room0 = builder.add_cluster("room-0", {250.0, 250.0});
  const auto room1 = builder.add_cluster("room-1", {750.0, 750.0});
  auto model = std::make_shared<energy::QuadraticEnergy>(5.0, 2.0, 20.0);
  builder.add_server("s0", room0, 64, 1.8, 3.6, model);
  builder.add_server("s1", room0, 128, 1.8, 3.6, model);
  builder.add_server("s2", room1, 64, 2.0, 3.0, model);
  builder.add_base_station("bs-0", {500.0, 500.0}, topology::Band::kLow,
                           2000.0, 80e6, 0.8e9, 10.0, {room0, room1});
  builder.add_base_station("bs-1", {500.0, 500.0}, topology::Band::kLow,
                           2000.0, 60e6, 0.6e9, 10.0, {room1});
  for (std::size_t i = 0; i < devices; ++i) {
    builder.add_device(numbered("d", i),
                       {100.0 + 50.0 * static_cast<double>(i), 400.0});
  }
  return std::make_shared<topology::Topology>(builder.build());
}

// Instance over tiny_topology with uniform suitability 1.0 (overridable).
inline core::Instance tiny_instance(std::size_t devices = 3,
                                    double budget = 5.0,
                                    double sigma_value = 1.0) {
  auto topo = tiny_topology(devices);
  core::SuitabilityMatrix sigma(
      devices, std::vector<double>(topo->num_servers(), sigma_value));
  return core::Instance(topo, std::move(sigma), budget);
}

// A deterministic slot state: every channel usable with h = 30 bps/Hz,
// f = 1e8 cycles, d = 5e6 bits, price = $50/MWh.
inline core::SlotState uniform_state(std::size_t devices,
                                     std::size_t base_stations,
                                     double f = 1e8, double d = 5e6,
                                     double h = 30.0, double price = 50.0) {
  core::SlotState state;
  state.slot = 0;
  state.task_cycles.assign(devices, f);
  state.data_bits.assign(devices, d);
  state.channel.assign(devices, std::vector<double>(base_stations, h));
  state.price_per_mwh = price;
  return state;
}

// A randomized state over the given shape (all links usable).
inline core::SlotState random_state(std::size_t devices,
                                    std::size_t base_stations,
                                    util::Rng& rng) {
  core::SlotState state;
  state.slot = 0;
  state.task_cycles.resize(devices);
  state.data_bits.resize(devices);
  state.channel.assign(devices, std::vector<double>(base_stations, 0.0));
  for (std::size_t i = 0; i < devices; ++i) {
    state.task_cycles[i] = rng.uniform(50e6, 200e6);
    state.data_bits[i] = rng.uniform(3e6, 10e6);
    for (std::size_t k = 0; k < base_stations; ++k) {
      state.channel[i][k] = rng.uniform(15.0, 50.0);
    }
  }
  state.price_per_mwh = rng.uniform(20.0, 90.0);
  return state;
}

}  // namespace eotora::test
