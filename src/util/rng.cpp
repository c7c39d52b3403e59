#include "util/rng.h"

namespace eotora::util {

namespace {

constexpr std::size_t kShift = 156;  // MT19937-64's middle offset m
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;

// One twist step: the top bit of `hi`, the low 31 bits of `lo`, folded into
// `far`. The odd-word XOR with matrix A is a mask, not a branch.
inline std::uint64_t twist_word(std::uint64_t hi, std::uint64_t lo,
                                std::uint64_t far) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed) : pos_(kStateSize) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  constexpr std::size_t n = kStateSize;
  for (std::size_t k = 0; k < n - kShift; ++k) {
    state_[k] = twist_word(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (std::size_t k = n - kShift; k < n - 1; ++k) {
    state_[k] =
        twist_word(state_[k], state_[k + 1], state_[k + kShift - n]);
  }
  state_[n - 1] = twist_word(state_[n - 1], state_[0], state_[kShift - 1]);
  pos_ = 0;
}

}  // namespace eotora::util
