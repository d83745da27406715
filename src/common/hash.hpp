// Stable, platform-independent hashing.
//
// std::hash makes no cross-platform (or even cross-run) guarantees, so
// anything that must hash identically wherever it runs — snapshot
// digests, map-cache keys, sampling seeds — uses FNV-1a here.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace envnws::hash {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// 64-bit FNV-1a over the bytes of `data`; `seed` chains digests.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view data,
                                              std::uint64_t seed = kFnvOffset) {
  std::uint64_t state = seed;
  for (const char byte : data) {
    state ^= static_cast<unsigned char>(byte);
    state *= kFnvPrime;
  }
  return state;
}

/// Fixed-width lowercase hex rendering of a 64-bit digest.
[[nodiscard]] inline std::string hex64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int nibble = 15; nibble >= 0; --nibble) {
    out[static_cast<std::size_t>(nibble)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace envnws::hash
