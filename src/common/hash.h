// Hash functions used across the reproduction.
//
// The switch data plane model uses these for ECMP hashing, sketch indexing,
// and flow-table lookups; CRC32 mirrors the hash units available on Tofino
// pipelines, FNV-1a is used for host-side hashing where speed matters more
// than any particular polynomial.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace redplane {

/// 64-bit FNV-1a over an arbitrary byte span.
std::uint64_t Fnv1a64(std::span<const std::byte> data);

/// 64-bit FNV-1a over a string.
std::uint64_t Fnv1a64(std::string_view s);

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte span.  This is the
/// polynomial exposed by Tofino hash units and is used wherever the data
/// plane model computes a hash (ECMP, sketch rows).
std::uint32_t Crc32(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Stateless 64-bit finalizer (SplitMix64's output function); good for
/// combining already-mixed words.  Inline: ECMP calls it on every hop.
inline std::uint64_t Mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Combines two hash values (boost::hash_combine style, 64-bit).
inline std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  return h ^ (Mix64(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

}  // namespace redplane
