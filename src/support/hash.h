// The repository's two cheap, platform-stable hashes: splitmix64 (Steele,
// Lea & Flood) as a mixer and sequence generator, and 64-bit FNV-1a for
// byte strings. Their outputs are observable — the router's hash-ring
// layout, fault-injection decisions, trace sampling, Prng seeding and
// the .mcrpack checksum all depend on them — so they must never change.
#ifndef MCR_SUPPORT_HASH_H
#define MCR_SUPPORT_HASH_H

#include <cstdint>
#include <string_view>

namespace mcr {

inline constexpr std::uint64_t kGoldenGamma = 0x9e37'79b9'7f4a'7c15ULL;

/// splitmix64 of one word: golden-gamma increment, then the full
/// avalanche finalizer. Pure in its input.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
  return x ^ (x >> 31);
}

/// One step of the splitmix64 sequence: advances `state` by the golden
/// gamma and returns the mixed value of the new state.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  const std::uint64_t out = splitmix64(state);
  state += kGoldenGamma;
  return out;
}

/// Uniform double in [0, 1) from the top 53 bits of a 64-bit word.
[[nodiscard]] constexpr double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// 64-bit FNV-1a over the bytes of `s`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x0000'0100'0000'01b3ULL;
  }
  return h;
}

}  // namespace mcr

#endif  // MCR_SUPPORT_HASH_H
