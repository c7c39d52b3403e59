// Data-oriented kernel layer: the batched, branch-light arithmetic the
// per-slot solvers are built on (ROADMAP "fast as the hardware allows").
//
// Four kernels cover the decide loop's inner arithmetic:
//   lemma1_batch       — the closed-form share evaluation of core/lemma1.h,
//                        restructured as sqrt(num/den) sweeps, a device-order
//                        scatter, and gather-divides over contiguous spans;
//   best_response_scan — BestResponseEngine's grouped option scan: a
//                        first-wins strict-< argmin over cached cost terms;
//   p2b_batch          — the N independent P2-B derivative bisections
//                        (core/p2b.h);
//   weighted_sumsq     — the Σ m_r P_r² social-cost reduction;
// plus sqrt_div, the sqrt(num/den) sweep lemma1_batch runs (and whose
// operands and rounding WcgProblem::rebuild's per-pair pricing repeats).
//
// Rounding contract: every kernel keeps the operation order of the
// open-coded loops it replaced — only IEEE-754 correctly-rounded +, -, *, /
// and sqrt, no reassociated sums, and every accumulation (the Lemma-1
// denominator scatter, the weighted_sumsq left-to-right sum) runs in index
// order. The golden fixtures pin the resulting bits; tests/test_kernels.cpp
// checks each kernel against an independent re-statement.
#pragma once

#include <cstddef>
#include <cstdint>

namespace eotora::core::kernels {

// ---------------------------------------------------------------------------
// best_response_scan

// A contiguous arena run of one device's options on one base station (the
// grouping BestResponseEngine scans by: the access and fronthaul terms are
// shared across the run, the compute term varies per entry).
struct ScanGroup {
  std::uint32_t begin = 0;  // arena range [begin, end)
  std::uint32_t end = 0;
  std::uint32_t device = 0;
  std::uint32_t bs = 0;
};

inline constexpr std::uint32_t kNoEntry = 0xffffffffu;

// Result of a scan: the first arena entry whose cost is strictly below every
// earlier candidate and the initial bound, or kNoEntry when no candidate
// beats the bound (the caller keeps its current option).
struct ScanHit {
  std::uint32_t entry = kNoEntry;
  double cost = 0.0;
};

// First-wins strict-< argmin over the groups' entries: the candidate cost of
// arena entry a in group g is (tc[server_of_entry[a]] + ta[g.bs]) + tf[g.bs]
// (left-associated, as LoadTracker::cost_if_moved sums it). Entry
// `skip_entry` (the device's current option, or kNoEntry) is excluded;
// `bound` seeds the champion cost.
[[nodiscard]] ScanHit best_response_scan(const double* tc,
                                         const std::uint32_t* server_of_entry,
                                         const ScanGroup* groups,
                                         std::size_t num_groups,
                                         const double* ta, const double* tf,
                                         std::uint32_t skip_entry,
                                         double bound);

// ---------------------------------------------------------------------------
// lemma1_batch

// One batched Lemma-1 evaluation over `devices` devices. All pointer spans
// have length `devices` unless noted. The kernel fills the three sqrt
// scratch vectors with sqrt(num/den), zeroes and accumulates the per-resource
// denominators IN DEVICE ORDER (the accumulation order fixes the rounding),
// then writes share[i] = sqrt_val[i] / denominator[key[i]] for each category.
struct Lemma1Io {
  std::size_t devices = 0;
  // compute: num = f_i, den = σ_{i,n_i}, keyed by the selected server n_i.
  const double* compute_num = nullptr;
  const double* compute_den = nullptr;
  const std::uint32_t* server_key = nullptr;
  std::size_t num_servers = 0;
  // access: num = d_i, den = h_{i,k_i}; fronthaul: num = d_i, den = h^F_{k_i};
  // both keyed by the selected base station k_i.
  const double* access_num = nullptr;
  const double* access_den = nullptr;
  const double* fronthaul_num = nullptr;
  const double* fronthaul_den = nullptr;
  const std::uint32_t* bs_key = nullptr;
  std::size_t num_stations = 0;
  // Caller-sized scratch: the three sqrt vectors (length devices).
  double* sqrt_compute = nullptr;
  double* sqrt_access = nullptr;
  double* sqrt_fronthaul = nullptr;
  // Caller-sized per-resource denominators (num_servers / num_stations /
  // num_stations); zeroed by the kernel.
  double* server_denominator = nullptr;
  double* access_denominator = nullptr;
  double* fronthaul_denominator = nullptr;
  // Outputs (length devices): φ*, ψ^A*, ψ^F*.
  double* phi = nullptr;
  double* psi_access = nullptr;
  double* psi_fronthaul = nullptr;
};

void lemma1_batch(const Lemma1Io& io);

// ---------------------------------------------------------------------------
// p2b_batch

// SoA view of the P2-B servers that need an interior bisection (the q == 0
// and idle-server closed forms are resolved by the caller). Each server
// solves
//   d/dw [ V·A_n/(cores·w·1e9) + scale·power_watts(w) ] = 0   on [lo, hi]
// with the affine energy-model derivative slope·w + intercept (2a·w + b for
// the quadratic model, 0·w + slope for the linear one), reproducing
// math::derivative_bisection's endpoint tests, midpoint updates, and
// iteration cutoff bit-for-bit; non-affine models never enter a batch —
// core/p2b.cpp keeps them on the per-server path.
struct P2bBatchView {
  std::size_t n = 0;
  const double* neg_va = nullptr;      // (-V) · A_n
  const double* cores = nullptr;       // core counts as doubles
  const double* lo = nullptr;          // F^L_n
  const double* hi = nullptr;          // F^U_n
  const double* d_slope = nullptr;     // energy-derivative slope per server
  const double* d_intercept = nullptr; // energy-derivative intercept
  double scale = 0.0;                  // Q · price · slot_h / 1e6
  double tolerance = 1e-7;
  int max_iterations = 200;
};

void p2b_batch(const P2bBatchView& batch, double* out_x);

// ---------------------------------------------------------------------------
// Reductions and sweeps

// Σ ((w[i]·x[i])·x[i]), summed left to right.
[[nodiscard]] double weighted_sumsq(const double* w, const double* x,
                                    std::size_t n);

// out[i] = sqrt(num[i] / den[i]).
void sqrt_div(const double* num, const double* den, double* out,
              std::size_t n);

// Name of the arithmetic implementation, recorded as provenance in bench
// artifacts. There is one: the scalar loops above.
[[nodiscard]] constexpr const char* backend_name() { return "scalar"; }

}  // namespace eotora::core::kernels
