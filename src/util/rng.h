// Deterministic random number generation for simulations.
//
// All stochastic components of the library draw through Rng so that a single
// 64-bit seed reproduces an entire experiment bit-for-bit. Rng also supports
// cheap forking (`fork`) to hand independent, deterministic streams to
// sub-components (per-device noise, per-server perturbations, ...) without
// coupling their consumption order.
//
// Stream contract. Every draw is bit-identical to what the library produced
// when Rng wrapped libstdc++ 12's std::mt19937_64 and <random>
// distributions, and every golden fixture depends on that:
//   - Mt19937_64 is MT19937-64 (same seeding, twist and tempering);
//   - uniform(lo, hi) is generate_canonical<double, 53> — one engine output
//     scaled by 2^-64 and clamped to nextafter(1, 0) — times (hi - lo) plus
//     lo, as std::uniform_real_distribution computes it;
//   - normal() is the Marsaglia polar method evaluated exactly as
//     std::normal_distribution does, with a FRESH distribution per call: the
//     second variate of each accepted pair is discarded. Caching it would
//     halve the cost but move every golden, so the discard is deliberate;
//   - bernoulli(p) is `u < p`, exponential(rate) is -log(1 - u) / rate;
//   - uniform_int / index run std::uniform_int_distribution over the engine,
//     which only consumes raw 64-bit outputs.
// The library's own implementation exists for speed: on a baseline x86-64
// build (no SSE4.1 blend, no AVX-512 unsigned conversion) libstdc++'s twist
// branches on the low bit of every state word and its u64 -> double
// conversion branches on the sign bit, both unpredictable. Here the twist
// masks instead of branching and the conversion splits the word into two
// exactly-representable halves whose sum rounds once — the same bits as a
// direct conversion. Rng.StreamMatchesStandardLibrary pins all of it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/check.h"

namespace eotora::util {

// MT19937-64 with a branch-free twist. Same outputs as std::mt19937_64 for
// the same seed; satisfies UniformRandomBitGenerator.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kStateSize) twist();
    result_type z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  void twist();

  std::array<result_type, kStateSize> state_;
  std::size_t pos_;
};

class Rng {
 public:
  // A fixed default seed keeps zero-config runs reproducible.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : engine_(seed) {}

  // Uniform real in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    EOTORA_REQUIRE_MSG(lo <= hi, "lo=" << lo << " hi=" << hi);
    return unit() * (hi - lo) + lo;
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    EOTORA_REQUIRE_MSG(lo <= hi, "lo=" << lo << " hi=" << hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Index into a container of the given size. Requires size > 0.
  std::size_t index(std::size_t size) {
    EOTORA_REQUIRE(size > 0);
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  // Standard normal (mean 0, stddev 1).
  double normal() { return polar(0.0, 1.0); }

  // Normal with given mean and stddev. Requires stddev >= 0.
  double normal(double mean, double stddev) {
    EOTORA_REQUIRE_MSG(stddev >= 0.0, "stddev=" << stddev);
    return polar(mean, stddev);
  }

  // Consumes exactly the engine outputs `count` normal() calls would,
  // without evaluating the variates (no log, no sqrt). For draws whose
  // values are never used but whose stream position must be kept. Each
  // polar attempt takes two outputs; counting accepted attempts instead of
  // branching on them keeps the loop free of the 21% rejection branch.
  void skip_normals(std::size_t count) {
    while (count > 0) {
      const double x = 2.0 * unit() - 1.0;
      const double y = 2.0 * unit() - 1.0;
      const double r2 = x * x + y * y;
      count -= static_cast<std::size_t>((r2 <= 1.0) & (r2 != 0.0));
    }
  }

  // Bernoulli draw. Requires p in [0, 1].
  bool bernoulli(double p) {
    EOTORA_REQUIRE_MSG(p >= 0.0 && p <= 1.0, "p=" << p);
    return unit() < p;
  }

  // Exponential with the given rate. Requires rate > 0.
  double exponential(double rate) {
    EOTORA_REQUIRE_MSG(rate > 0.0, "rate=" << rate);
    return -std::log(1.0 - unit()) / rate;
  }

  // Derives an independent deterministic child stream. Children forked in the
  // same order from the same parent state are identical across runs.
  Rng fork() { return Rng(engine_() ^ 0xD1B54A32D192ED03ull); }

  // Picks an element from a non-empty vector by value.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    EOTORA_REQUIRE(!items.empty());
    return items[index(items.size())];
  }

  // In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  Mt19937_64& engine() { return engine_; }
  const Mt19937_64& engine() const { return engine_; }

 private:
  // generate_canonical<double, 53>: uniform in [0, 1) from one output.
  double unit() {
    const std::uint64_t bits = engine_();
    // Both halves convert exactly and the sum rounds once, so this equals
    // static_cast<double>(bits) without its sign-bit branch.
    const double value =
        static_cast<double>(static_cast<std::uint32_t>(bits >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::uint32_t>(bits));
    // Values that round up to 2^64 clamp to nextafter(1, 0).
    return std::min(value * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  // One Marsaglia polar pair; returns the y variate, discards the x one.
  double polar(double mean, double stddev) {
    double x;
    double y;
    double r2;
    do {
      x = 2.0 * unit() - 1.0;
      y = 2.0 * unit() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }

  Mt19937_64 engine_;
};

}  // namespace eotora::util
