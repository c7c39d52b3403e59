#include "core/kernels/kernels.h"

#include <algorithm>
#include <cmath>

namespace eotora::core::kernels {

namespace {

// out[i] = num[i] / den[key[i]].
void div_gather(const double* num, const double* den, const std::uint32_t* key,
                double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = num[i] / den[key[i]];
}

// Candidates [begin, end) of one group against the running champion, with
// LoadTracker::best_response's strict-< update (the first occurrence of the
// minimum wins).
void scan_range(const double* tc, const std::uint32_t* server_of_entry,
                std::uint32_t begin, std::uint32_t end, double a_term,
                double f_term, double& best_cost, std::uint32_t& best_entry) {
  for (std::uint32_t a = begin; a < end; ++a) {
    const double c = (tc[server_of_entry[a]] + a_term) + f_term;
    if (c < best_cost) {
      best_cost = c;
      best_entry = a;
    }
  }
}

// d/dw of the per-server P2-B objective with the affine energy-model
// derivative slope·w + intercept. Operation order matches the open-coded
// lambda in core/p2b.cpp exactly:
//   -V·A / (cores·w·w·1e9) + scale · ((slope·w + intercept) · cores / 4.0)
// (the trailing · cores / 4.0 is Server::power_derivative_watts' scaling).
double p2b_derivative_affine(double neg_va, double cores, double scale,
                             double d_slope, double d_intercept, double w) {
  const double den = cores * w * w * 1e9;
  const double pd = d_slope * w + d_intercept;
  const double watts = pd * cores / 4.0;
  return neg_va / den + scale * watts;
}

}  // namespace

void sqrt_div(const double* num, const double* den, double* out,
              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::sqrt(num[i] / den[i]);
}

void lemma1_batch(const Lemma1Io& io) {
  sqrt_div(io.compute_num, io.compute_den, io.sqrt_compute, io.devices);
  sqrt_div(io.access_num, io.access_den, io.sqrt_access, io.devices);
  sqrt_div(io.fronthaul_num, io.fronthaul_den, io.sqrt_fronthaul, io.devices);
  // Device-order accumulation: the same rounding as the open-coded loop in
  // the pre-kernel core/lemma1.cpp.
  std::fill_n(io.server_denominator, io.num_servers, 0.0);
  std::fill_n(io.access_denominator, io.num_stations, 0.0);
  std::fill_n(io.fronthaul_denominator, io.num_stations, 0.0);
  for (std::size_t i = 0; i < io.devices; ++i) {
    io.server_denominator[io.server_key[i]] += io.sqrt_compute[i];
    io.access_denominator[io.bs_key[i]] += io.sqrt_access[i];
    io.fronthaul_denominator[io.bs_key[i]] += io.sqrt_fronthaul[i];
  }
  div_gather(io.sqrt_compute, io.server_denominator, io.server_key, io.phi,
             io.devices);
  div_gather(io.sqrt_access, io.access_denominator, io.bs_key, io.psi_access,
             io.devices);
  div_gather(io.sqrt_fronthaul, io.fronthaul_denominator, io.bs_key,
             io.psi_fronthaul, io.devices);
}

ScanHit best_response_scan(const double* tc,
                           const std::uint32_t* server_of_entry,
                           const ScanGroup* groups, std::size_t num_groups,
                           const double* ta, const double* tf,
                           std::uint32_t skip_entry, double bound) {
  double best_cost = bound;
  std::uint32_t best_entry = kNoEntry;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const ScanGroup& grp = groups[g];
    const double a_term = ta[grp.bs];
    const double f_term = tf[grp.bs];
    // Split the group's range around the skipped entry rather than testing
    // every entry against it (kNoEntry lies outside every range).
    if (skip_entry - grp.begin < grp.end - grp.begin) {
      scan_range(tc, server_of_entry, grp.begin, skip_entry, a_term, f_term,
                 best_cost, best_entry);
      scan_range(tc, server_of_entry, skip_entry + 1, grp.end, a_term, f_term,
                 best_cost, best_entry);
    } else {
      scan_range(tc, server_of_entry, grp.begin, grp.end, a_term, f_term,
                 best_cost, best_entry);
    }
  }
  return {best_entry, best_cost};
}

void p2b_batch(const P2bBatchView& batch, double* out_x) {
  for (std::size_t i = 0; i < batch.n; ++i) {
    const double neg_va = batch.neg_va[i];
    const double cores = batch.cores[i];
    const double slope = batch.d_slope[i];
    const double icept = batch.d_intercept[i];
    const double scale = batch.scale;
    const auto df = [=](double w) {
      return p2b_derivative_affine(neg_va, cores, scale, slope, icept, w);
    };
    // math::derivative_bisection's endpoint tests, midpoint updates, and
    // iteration cutoff.
    const double lo = batch.lo[i];
    const double hi = batch.hi[i];
    if (df(lo) >= 0.0) {
      out_x[i] = lo;
      continue;
    }
    if (df(hi) <= 0.0) {
      out_x[i] = hi;
      continue;
    }
    double a = lo;
    double b = hi;
    for (int iter = 0; iter < batch.max_iterations && (b - a) > batch.tolerance;
         ++iter) {
      const double mid = 0.5 * (a + b);
      if (df(mid) < 0.0) {
        a = mid;
      } else {
        b = mid;
      }
    }
    out_x[i] = 0.5 * (a + b);
  }
}

double weighted_sumsq(const double* w, const double* x, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += w[i] * x[i] * x[i];
  return sum;
}

}  // namespace eotora::core::kernels
