#include "common/hash.h"

#include <array>

namespace redplane {

std::uint64_t Fnv1a64(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(std::as_bytes(std::span(s.data(), s.size())));
}

namespace {
std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}
}  // namespace

std::uint32_t Crc32(std::span<const std::byte> data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> kTable = MakeCrcTable();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::byte b : data) {
    c = kTable[(c ^ static_cast<std::uint8_t>(b)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace redplane
