#include "support/prng.h"

#include <cassert>

#include "support/hash.h"

namespace mcr {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Prng::Prng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64_next(x);
  // All-zero state is the one forbidden state; splitmix64 cannot produce
  // four zero outputs from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Prng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Prng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  // Rejection sampling for exact uniformity.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next();
  while (v >= limit) v = next();
  return lo + static_cast<std::int64_t>(v % range);
}

double Prng::uniform_real() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Prng::bernoulli(double p) { return uniform_real() < p; }

std::uint64_t Prng::fork_seed() { return next(); }

}  // namespace mcr
