#include "topology/channel_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace eotora::topology {

namespace {

// Rounding slack around a device box: mobility interpolates between in-box
// points and may land a few ulps past an edge, far below this.
double box_slack(const BoundingBox& box) {
  return 1e-9 * (std::abs(box.min_x) + std::abs(box.max_x) +
                 std::abs(box.min_y) + std::abs(box.max_y));
}

bool inside(const BoundingBox& box, Point p) {
  const double slack = box_slack(box);
  return p.x >= box.min_x - slack && p.x <= box.max_x + slack &&
         p.y >= box.min_y - slack && p.y <= box.max_y + slack;
}

// True only when no point of the (slack-widened) box is within coverage.
// The relative margin on the radius absorbs the rounding of this distance
// and of step_into's, so a pair that touches the coverage edge exactly
// stays coverable.
bool never_coverable(const BoundingBox& box, const BaseStation& bs) {
  const double slack = box_slack(box);
  const Point c = bs.position;
  const double dx = std::max({box.min_x - slack - c.x, 0.0,
                              c.x - (box.max_x + slack)});
  const double dy = std::max({box.min_y - slack - c.y, 0.0,
                              c.y - (box.max_y + slack)});
  return std::sqrt(dx * dx + dy * dy) > bs.coverage_radius_m * (1.0 + 1e-9);
}

}  // namespace

template <typename Draw>
void ChannelModel::for_each_draw(std::size_t i, Draw&& draw) {
  std::size_t k = 0;
  for (std::size_t p = row_begin_[i]; p < row_begin_[i + 1]; ++p) {
    const std::size_t station = station_of_[p];
    rng_.skip_normals(station - k);
    draw(p, station);
    k = station + 1;
  }
  rng_.skip_normals(num_base_stations_ - k);
}

ChannelModel::ChannelModel(const ChannelConfig& config,
                           const Topology& topology, util::Rng rng,
                           std::vector<BoundingBox> device_boxes)
    : config_(config),
      num_devices_(topology.num_devices()),
      num_base_stations_(topology.num_base_stations()),
      device_boxes_(std::move(device_boxes)),
      rng_(rng) {
  EOTORA_REQUIRE(config.min_efficiency > 0.0);
  EOTORA_REQUIRE(config.max_efficiency >= config.min_efficiency);
  EOTORA_REQUIRE(config.edge_factor > 0.0 && config.edge_factor <= 1.0);
  EOTORA_REQUIRE(config.shadowing_rho >= 0.0 && config.shadowing_rho < 1.0);
  EOTORA_REQUIRE(config.shadowing_stddev >= 0.0);
  EOTORA_REQUIRE_MSG(
      device_boxes_.empty() || device_boxes_.size() == num_devices_,
      "boxes=" << device_boxes_.size() << " devices=" << num_devices_);
  EOTORA_REQUIRE(num_base_stations_ <=
                 std::numeric_limits<std::uint32_t>::max());
  base_efficiency_.reserve(num_base_stations_);
  for (std::size_t k = 0; k < num_base_stations_; ++k) {
    base_efficiency_.push_back(
        rng_.uniform(config.min_efficiency, config.max_efficiency));
  }

  row_begin_.reserve(num_devices_ + 1);
  row_begin_.push_back(0);
  for (std::size_t i = 0; i < num_devices_; ++i) {
    for (std::size_t k = 0; k < num_base_stations_; ++k) {
      if (device_boxes_.empty() ||
          !never_coverable(device_boxes_[i],
                           topology.base_station(BaseStationId{k}))) {
        station_of_.push_back(static_cast<std::uint32_t>(k));
      }
    }
    row_begin_.push_back(station_of_.size());
  }

  // Start shadowing from its stationary distribution so early slots are not
  // systematically calmer than later ones.
  const double stationary_stddev =
      config.shadowing_stddev /
      std::sqrt(1.0 - config.shadowing_rho * config.shadowing_rho);
  shadowing_.resize(station_of_.size());
  for (std::size_t i = 0; i < num_devices_; ++i) {
    for_each_draw(i, [&](std::size_t p, std::size_t) {
      shadowing_[p] = rng_.normal(0.0, stationary_stddev);
    });
  }
}

ChannelMatrix ChannelModel::step(const Topology& topology) {
  ChannelMatrix h;
  step_into(topology, h);
  return h;
}

void ChannelModel::step_into(const Topology& topology, ChannelMatrix& h) {
  EOTORA_REQUIRE(topology.num_devices() == num_devices_);
  EOTORA_REQUIRE(topology.num_base_stations() == num_base_stations_);
  h.resize(num_devices_);
  for (std::size_t i = 0; i < num_devices_; ++i) {
    h[i].assign(num_base_stations_, 0.0);
  }
  for (std::size_t i = 0; i < num_devices_; ++i) {
    const Point pos = topology.device(DeviceId{i}).position;
    // The skipped pairs are only sound while the device stays in its box.
    EOTORA_REQUIRE_MSG(device_boxes_.empty() || inside(device_boxes_[i], pos),
                       "device " << i << " at (" << pos.x << ", " << pos.y
                                 << ") left its box");
    for_each_draw(i, [&](std::size_t p, std::size_t k) {
      double& s = shadowing_[p];
      s = config_.shadowing_rho * s +
          rng_.normal(0.0, config_.shadowing_stddev);
      const BaseStation& bs = topology.base_station(BaseStationId{k});
      const double d = distance(bs.position, pos);
      if (d > bs.coverage_radius_m) return;  // uncovered -> h = 0
      double attenuation = 1.0;
      if (config_.attenuation == ChannelConfig::Attenuation::kLinear) {
        // Linear from 1.0 at the BS to edge_factor at the edge.
        const double frac = d / bs.coverage_radius_m;
        attenuation = 1.0 - (1.0 - config_.edge_factor) * frac;
      } else {
        // Log-distance silhouette (d0/d)^eta, flat inside d0, renormalized
        // so the coverage edge lands exactly on edge_factor.
        const double d0 = config_.reference_distance_m;
        auto shape = [&](double dist) {
          return std::pow(d0 / std::max(dist, d0),
                          config_.pathloss_exponent);
        };
        const double edge_shape = shape(bs.coverage_radius_m);
        const double sh = shape(d);
        // Affine map: shape 1 -> 1, shape at edge -> edge_factor.
        attenuation = edge_shape >= 1.0
                          ? 1.0
                          : config_.edge_factor +
                                (1.0 - config_.edge_factor) *
                                    (sh - edge_shape) / (1.0 - edge_shape);
      }
      const double raw = base_efficiency_[k] * attenuation + s;
      h[i][k] =
          std::clamp(raw, config_.min_efficiency, config_.max_efficiency);
    });
  }
}

}  // namespace eotora::topology
