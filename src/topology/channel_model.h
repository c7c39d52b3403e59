// Time-varying access-link spectrum efficiency h_{i,k,t} (bps/Hz).
//
// Paper §VI-A draws each base station's access-link spectrum efficiency in
// [15, 50] bps/Hz. We make the per-(device, BS) efficiency time-varying as
// §III-A requires: a per-BS baseline (drawn from the paper's range), reduced
// with distance from the base station, plus per-pair AR(1) shadowing; the
// result is clamped back into [h_min, h_max]. Devices outside a BS's
// coverage get efficiency 0, which marks the link unusable.
//
// Never-coverable links. Given each device's confinement box, a (device, BS)
// pair whose box provably lies outside the station's coverage has h = 0 in
// every slot. The model keeps no shadowing state for such a pair and only
// advances the rng past its draw (util::Rng::skip_normals), so the stream,
// and with it every h, is bit-identical to a model built without boxes. A
// metro district sees 2 of 128 stations at 64 districts, so this skips
// almost all of the per-slot work there.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.h"
#include "util/rng.h"

namespace eotora::topology {

struct ChannelConfig {
  // How the per-pair mean efficiency falls off with distance.
  //   kLinear:      1 at the BS down to edge_factor at the coverage edge;
  //   kLogDistance: (d0 / d)^pathloss_exponent shape renormalized to hit
  //                 edge_factor at the edge — steeper near the BS, flatter
  //                 far out, the classic log-distance pathloss silhouette.
  enum class Attenuation { kLinear, kLogDistance };

  double min_efficiency = 15.0;  // bps/Hz (paper's lower draw bound)
  double max_efficiency = 50.0;  // bps/Hz (paper's upper draw bound)
  // Efficiency multiplier at the coverage edge (1.0 at the BS itself).
  double edge_factor = 0.6;
  Attenuation attenuation = Attenuation::kLinear;
  double pathloss_exponent = 2.0;     // kLogDistance only
  double reference_distance_m = 10.0; // d0 for kLogDistance
  // AR(1) shadowing: s_{t+1} = rho * s_t + noise, noise stddev in bps/Hz.
  double shadowing_rho = 0.9;
  double shadowing_stddev = 2.0;
};

// h_t as a dense I x K matrix; 0 marks an unusable (uncovered) link.
using ChannelMatrix = std::vector<std::vector<double>>;

class ChannelModel {
 public:
  // Draws per-BS baselines and initializes shadowing states.
  // `device_boxes` is empty (every pair is treated as coverable) or holds
  // one box per device that the device never leaves; step_into fails fast
  // if a device is found outside its box.
  ChannelModel(const ChannelConfig& config, const Topology& topology,
               util::Rng rng, std::vector<BoundingBox> device_boxes = {});

  // Advances shadowing one slot and evaluates h for the devices' current
  // positions. Requires the same topology shape the model was built with.
  [[nodiscard]] ChannelMatrix step(const Topology& topology);

  // Same advance, refilling `out` in place (resized to I x K). Identical
  // RNG stream to step(); reuses the row vectors' capacity so a
  // steady-state caller allocates nothing per slot.
  void step_into(const Topology& topology, ChannelMatrix& out);

  [[nodiscard]] const std::vector<double>& base_efficiencies() const {
    return base_efficiency_;
  }
  [[nodiscard]] const ChannelConfig& config() const { return config_; }
  // Pairs that keep shadowing state (I x K when built without boxes).
  [[nodiscard]] std::size_t coverable_pairs() const {
    return shadowing_.size();
  }
  [[nodiscard]] const util::Rng& rng() const { return rng_; }

 private:
  // Draws device i's per-station normals in stream order: `draw(p, k)` for
  // each coverable pair p (station k), skip_normals() for the ones between.
  template <typename Draw>
  void for_each_draw(std::size_t i, Draw&& draw);

  ChannelConfig config_;
  std::size_t num_devices_;
  std::size_t num_base_stations_;
  std::vector<double> base_efficiency_;  // per BS
  std::vector<BoundingBox> device_boxes_;  // empty: nothing is skipped
  // Coverable pairs, CSR by device: device i owns pairs
  // [row_begin_[i], row_begin_[i + 1]), stations ascending, and shadowing_
  // holds each pair's AR(1) state.
  std::vector<std::size_t> row_begin_;
  std::vector<std::uint32_t> station_of_;
  std::vector<double> shadowing_;
  util::Rng rng_;
};

}  // namespace eotora::topology
