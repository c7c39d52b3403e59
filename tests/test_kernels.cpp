// Kernel-layer contracts (core/kernels): each kernel must reproduce an
// independent re-statement of the open-coded loop it replaced BIT FOR BIT,
// across randomized shapes — this is what lets the golden fixtures hold.
#include "core/kernels/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "core/p2b.h"
#include "core/wcg.h"
#include "math/minimize1d.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace eotora::core::kernels {
namespace {

constexpr int kFuzzSeeds = 25;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

static_assert(std::string_view(backend_name()) == "scalar");

// ---------------------------------------------------------------------------
// sqrt_div

TEST(KernelFuzz, SqrtDivMatchesOpenCodedLoop) {
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(1000 + seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 97));
    std::vector<double> num(n);
    std::vector<double> den(n);
    for (std::size_t i = 0; i < n; ++i) {
      num[i] = rng.uniform(1e6, 1e12);
      den[i] = rng.uniform(1e-3, 1.0);
    }
    std::vector<double> out(n, -1.0);
    sqrt_div(num.data(), den.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(out[i]), bits(std::sqrt(num[i] / den[i])))
          << "seed=" << seed << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// lemma1_batch

struct Lemma1Fixture {
  std::size_t devices = 0;
  std::size_t servers = 0;
  std::size_t stations = 0;
  std::vector<double> compute_num, compute_den, access_num, access_den;
  std::vector<double> fronthaul_num, fronthaul_den;
  std::vector<std::uint32_t> server_key, bs_key;
  std::vector<double> sqrt_compute, sqrt_access, sqrt_fronthaul;
  std::vector<double> server_den, access_den_sum, fronthaul_den_sum;
  std::vector<double> phi, psi_access, psi_fronthaul;

  explicit Lemma1Fixture(util::Rng& rng) {
    devices = static_cast<std::size_t>(rng.uniform_int(1, 60));
    servers = static_cast<std::size_t>(rng.uniform_int(1, 7));
    stations = static_cast<std::size_t>(rng.uniform_int(1, 5));
    compute_num.resize(devices);
    compute_den.resize(devices);
    access_num.resize(devices);
    access_den.resize(devices);
    fronthaul_num.resize(devices);
    fronthaul_den.resize(devices);
    server_key.resize(devices);
    bs_key.resize(devices);
    for (std::size_t i = 0; i < devices; ++i) {
      compute_num[i] = rng.uniform(5e7, 2e8);
      compute_den[i] = rng.uniform(0.2, 1.0);
      access_num[i] = rng.uniform(3e6, 1e7);
      access_den[i] = rng.uniform(15.0, 50.0);
      fronthaul_num[i] = access_num[i];
      fronthaul_den[i] = rng.uniform(5.0, 15.0);
      server_key[i] = static_cast<std::uint32_t>(rng.index(servers));
      bs_key[i] = static_cast<std::uint32_t>(rng.index(stations));
    }
    sqrt_compute.resize(devices);
    sqrt_access.resize(devices);
    sqrt_fronthaul.resize(devices);
    server_den.resize(servers);
    access_den_sum.resize(stations);
    fronthaul_den_sum.resize(stations);
    phi.resize(devices);
    psi_access.resize(devices);
    psi_fronthaul.resize(devices);
  }

  Lemma1Io io() {
    Lemma1Io out;
    out.devices = devices;
    out.compute_num = compute_num.data();
    out.compute_den = compute_den.data();
    out.server_key = server_key.data();
    out.num_servers = servers;
    out.access_num = access_num.data();
    out.access_den = access_den.data();
    out.fronthaul_num = fronthaul_num.data();
    out.fronthaul_den = fronthaul_den.data();
    out.bs_key = bs_key.data();
    out.num_stations = stations;
    out.sqrt_compute = sqrt_compute.data();
    out.sqrt_access = sqrt_access.data();
    out.sqrt_fronthaul = sqrt_fronthaul.data();
    out.server_denominator = server_den.data();
    out.access_denominator = access_den_sum.data();
    out.fronthaul_denominator = fronthaul_den_sum.data();
    out.phi = phi.data();
    out.psi_access = psi_access.data();
    out.psi_fronthaul = psi_fronthaul.data();
    return out;
  }
};

TEST(KernelFuzz, Lemma1BatchMatchesOpenCodedLoop) {
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(3000 + seed);
    Lemma1Fixture fixture(rng);
    lemma1_batch(fixture.io());
    // The pre-kernel core/lemma1.cpp loop: per-resource sums of
    // sqrt(num/den) accumulated in device order, then one divide per share.
    std::vector<double> server_sum(fixture.servers, 0.0);
    std::vector<double> access_sum(fixture.stations, 0.0);
    std::vector<double> fronthaul_sum(fixture.stations, 0.0);
    for (std::size_t i = 0; i < fixture.devices; ++i) {
      server_sum[fixture.server_key[i]] +=
          std::sqrt(fixture.compute_num[i] / fixture.compute_den[i]);
      access_sum[fixture.bs_key[i]] +=
          std::sqrt(fixture.access_num[i] / fixture.access_den[i]);
      fronthaul_sum[fixture.bs_key[i]] +=
          std::sqrt(fixture.fronthaul_num[i] / fixture.fronthaul_den[i]);
    }
    for (std::size_t i = 0; i < fixture.devices; ++i) {
      const double phi =
          std::sqrt(fixture.compute_num[i] / fixture.compute_den[i]) /
          server_sum[fixture.server_key[i]];
      const double psi_access =
          std::sqrt(fixture.access_num[i] / fixture.access_den[i]) /
          access_sum[fixture.bs_key[i]];
      const double psi_fronthaul =
          std::sqrt(fixture.fronthaul_num[i] / fixture.fronthaul_den[i]) /
          fronthaul_sum[fixture.bs_key[i]];
      ASSERT_EQ(bits(fixture.phi[i]), bits(phi))
          << "seed=" << seed << " i=" << i;
      ASSERT_EQ(bits(fixture.psi_access[i]), bits(psi_access))
          << "seed=" << seed << " i=" << i;
      ASSERT_EQ(bits(fixture.psi_fronthaul[i]), bits(psi_fronthaul))
          << "seed=" << seed << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// best_response_scan

// Where the fuzz places the skipped entry. The kernel splits each group's
// range at skip_entry, so the split's edges get seeds of their own.
enum class SkipAt {
  kRandomEntry,
  kGroupFirst,        // first entry of a group: the left part is empty
  kGroupLast,         // last entry of a group: the right part is empty
  kSingleEntryGroup,  // the only entry of a one-entry group: both are empty
  kNothing,           // kNoEntry: no group is split
};
constexpr int kSkipPlacements = 5;

struct ScanFixture {
  std::size_t servers = 0;
  std::size_t stations = 0;
  std::vector<double> tc, ta, tf;
  std::vector<std::uint32_t> server_of_entry;
  std::vector<ScanGroup> groups;
  std::uint32_t skip_entry = kNoEntry;
  double bound = std::numeric_limits<double>::infinity();

  ScanFixture(util::Rng& rng, SkipAt skip_at) {
    servers = static_cast<std::size_t>(rng.uniform_int(1, 9));
    stations = static_cast<std::size_t>(rng.uniform_int(1, 6));
    tc.resize(servers);
    ta.resize(stations);
    tf.resize(stations);
    for (std::size_t n = 0; n < servers; ++n) tc[n] = rng.uniform(0.0, 3.0);
    for (std::size_t k = 0; k < stations; ++k) {
      ta[k] = rng.uniform(0.0, 2.0);
      tf[k] = rng.uniform(0.0, 1.0);
    }
    const std::size_t num_groups =
        static_cast<std::size_t>(rng.uniform_int(1, 8));
    // The group the skipped entry lands in (unused for kRandomEntry and
    // kNothing).
    const std::size_t home = rng.index(num_groups);
    std::uint32_t arena = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      ScanGroup grp;
      grp.begin = arena;
      arena += skip_at == SkipAt::kSingleEntryGroup && g == home
                   ? 1u
                   : static_cast<std::uint32_t>(rng.uniform_int(1, 6));
      grp.end = arena;
      grp.device = 0;
      grp.bs = static_cast<std::uint32_t>(rng.index(stations));
      groups.push_back(grp);
    }
    server_of_entry.resize(arena);
    for (std::uint32_t a = 0; a < arena; ++a) {
      server_of_entry[a] = static_cast<std::uint32_t>(rng.index(servers));
      // Duplicate costs are common in real arenas (shared servers across
      // stations); force some exact ties so first-wins ordering is exercised.
      if (a > 0 && rng.bernoulli(0.3)) {
        server_of_entry[a] = server_of_entry[a - 1];
      }
    }
    switch (skip_at) {
      case SkipAt::kRandomEntry:
        skip_entry = static_cast<std::uint32_t>(rng.index(arena));
        break;
      case SkipAt::kGroupFirst:
      case SkipAt::kSingleEntryGroup:
        skip_entry = groups[home].begin;
        break;
      case SkipAt::kGroupLast:
        skip_entry = groups[home].end - 1;
        break;
      case SkipAt::kNothing:
        return;  // no current option to price the bound from
    }
    if (rng.bernoulli(0.5)) {
      const ScanGroup* group = nullptr;
      for (const ScanGroup& grp : groups) {
        if (skip_entry >= grp.begin && skip_entry < grp.end) group = &grp;
      }
      bound = (tc[server_of_entry[skip_entry]] + ta[group->bs]) + tf[group->bs];
    }
  }

  // Independent re-statement of the contract: first-wins strict-< argmin
  // over the exact left-associated costs.
  ScanHit expected() const {
    ScanHit best{kNoEntry, bound};
    for (const ScanGroup& grp : groups) {
      for (std::uint32_t a = grp.begin; a < grp.end; ++a) {
        if (a == skip_entry) continue;
        const double c = (tc[server_of_entry[a]] + ta[grp.bs]) + tf[grp.bs];
        if (c < best.cost) {
          best.cost = c;
          best.entry = a;
        }
      }
    }
    return best;
  }
};

TEST(KernelFuzz, BestResponseScanMatchesReference) {
  for (int seed = 0; seed < kFuzzSeeds * kSkipPlacements; ++seed) {
    util::Rng rng(4000 + seed);
    const ScanFixture fixture(rng,
                              static_cast<SkipAt>(seed % kSkipPlacements));
    const ScanHit expected = fixture.expected();
    const ScanHit hit = best_response_scan(
        fixture.tc.data(), fixture.server_of_entry.data(),
        fixture.groups.data(), fixture.groups.size(), fixture.ta.data(),
        fixture.tf.data(), fixture.skip_entry, fixture.bound);
    ASSERT_EQ(hit.entry, expected.entry) << "seed=" << seed;
    ASSERT_EQ(bits(hit.cost), bits(expected.cost)) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// p2b_batch

struct P2bFixture {
  std::size_t n = 0;
  std::vector<double> neg_va, cores, lo, hi, d_slope, d_intercept;
  double scale = 0.0;

  explicit P2bFixture(util::Rng& rng) {
    n = static_cast<std::size_t>(rng.uniform_int(1, 33));
    neg_va.resize(n);
    cores.resize(n);
    lo.resize(n);
    hi.resize(n);
    d_slope.resize(n);
    d_intercept.resize(n);
    scale = rng.uniform(1e-6, 1e-3);
    for (std::size_t i = 0; i < n; ++i) {
      neg_va[i] = -rng.uniform(1.0, 1e6);
      cores[i] = static_cast<double>(rng.uniform_int(4, 128));
      lo[i] = rng.uniform(0.5, 2.0);
      hi[i] = lo[i] + rng.uniform(0.1, 3.0);
      // Mix quadratic-style (slope > 0) and linear-style (slope == 0) lanes,
      // the two energy models core/p2b.cpp batches.
      d_slope[i] = rng.bernoulli(0.3) ? 0.0 : rng.uniform(1.0, 20.0);
      d_intercept[i] = rng.uniform(0.0, 10.0);
    }
  }

  P2bBatchView view() const {
    P2bBatchView batch;
    batch.n = n;
    batch.neg_va = neg_va.data();
    batch.cores = cores.data();
    batch.lo = lo.data();
    batch.hi = hi.data();
    batch.d_slope = d_slope.data();
    batch.d_intercept = d_intercept.data();
    batch.scale = scale;
    return batch;
  }
};

TEST(KernelFuzz, P2bBisectMatchesMathDerivativeBisection) {
  // Each server must reproduce math::derivative_bisection on the same
  // derivative, endpoint tests and iteration cutoff included.
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(7000 + seed);
    const P2bFixture fixture(rng);
    const P2bBatchView batch = fixture.view();
    std::vector<double> out(fixture.n, -1.0);
    p2b_batch(batch, out.data());
    for (std::size_t i = 0; i < fixture.n; ++i) {
      const auto derivative = [&](double w) {
        const double pd = fixture.d_slope[i] * w + fixture.d_intercept[i];
        return fixture.neg_va[i] / (fixture.cores[i] * w * w * 1e9) +
               fixture.scale * (pd * fixture.cores[i] / 4.0);
      };
      const math::Minimize1DResult expected = math::derivative_bisection(
          [](double) { return 0.0; }, derivative, fixture.lo[i],
          fixture.hi[i], batch.tolerance, batch.max_iterations);
      ASSERT_EQ(bits(out[i]), bits(expected.x))
          << "seed=" << seed << " lane=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// weighted_sumsq

TEST(KernelFuzz, WeightedSumsqSumsLeftToRight) {
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(8000 + seed);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 129));
    std::vector<double> w(n);
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.uniform(1e-10, 10.0);
      x[i] = rng.uniform(0.0, 1e4);
    }
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) expected += (w[i] * x[i]) * x[i];
    ASSERT_EQ(bits(weighted_sumsq(w.data(), x.data(), n)), bits(expected))
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// End to end: the batched P2-B against the pre-kernel per-server oracle.

TEST(KernelDifferential, SolveP2bMatchesReference) {
  const Instance instance = test::tiny_instance(10);
  WcgProblem problem;
  P2bWorkspace workspace;
  P2bResult result;
  for (int seed = 0; seed < kFuzzSeeds; ++seed) {
    util::Rng rng(9000 + seed);
    const SlotState state = test::random_state(10, 2, rng);
    problem.rebuild(instance, state, instance.min_frequencies());
    const Profile profile = problem.random_profile(rng);
    const Assignment assignment = problem.to_assignment(profile);
    const double v = rng.uniform(0.0, 500.0);
    const double q = rng.uniform(0.0, 200.0);
    const P2bResult expected =
        solve_p2b_reference(instance, state, assignment, v, q);
    solve_p2b(instance, state, assignment, v, q, 1e-7, workspace, result);
    ASSERT_EQ(result.frequencies.size(), expected.frequencies.size());
    for (std::size_t s = 0; s < expected.frequencies.size(); ++s) {
      ASSERT_EQ(bits(result.frequencies[s]), bits(expected.frequencies[s]))
          << "seed=" << seed << " server=" << s;
    }
    ASSERT_EQ(bits(result.objective), bits(expected.objective))
        << "seed=" << seed;
    // The arena-load overload prices the chosen options straight from the
    // WCG arena; same bits as the sqrt-chain recompute above.
    solve_p2b(instance, state, assignment, problem, profile, v, q, 1e-7,
              workspace, result);
    for (std::size_t s = 0; s < expected.frequencies.size(); ++s) {
      ASSERT_EQ(bits(result.frequencies[s]), bits(expected.frequencies[s]))
          << "seed=" << seed << " server=" << s << " (arena)";
    }
    ASSERT_EQ(bits(result.objective), bits(expected.objective))
        << "seed=" << seed << " (arena)";
  }
}

}  // namespace
}  // namespace eotora::core::kernels
