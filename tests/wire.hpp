// A message's bytes as docs/PROTOCOLS.md, docs/SCHEDULING.md and
// docs/MIGRATION.md lay them out, written without the codec: each field in
// turn, little-endian, strings and byte strings after a u32 length.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/sysname.hpp"
#include "ra/types.hpp"

namespace clouds::test {

struct Wire {
  Bytes bytes;
  Wire& le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) bytes.push_back(static_cast<std::byte>(v >> (8 * i)));
    return *this;
  }
  Wire& u8(std::uint8_t v) { return le(v, 1); }
  Wire& u16(std::uint16_t v) { return le(v, 2); }
  Wire& u32(std::uint32_t v) { return le(v, 4); }
  Wire& u64(std::uint64_t v) { return le(v, 8); }
  Wire& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  Wire& sysname(const Sysname& s) { return u64(s.hi()).u64(s.lo()); }
  Wire& pageKey(const ra::PageKey& k) { return sysname(k.segment).u32(k.page); }
  Wire& image(const Bytes& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    bytes.insert(bytes.end(), b.begin(), b.end());
    return *this;
  }
  Wire& str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (char c : s) bytes.push_back(static_cast<std::byte>(c));
    return *this;
  }
  // Zeroes up to `size` bytes: a header page's tail.
  Wire& padTo(std::size_t size) {
    bytes.resize(size, std::byte{0});
    return *this;
  }
};

}  // namespace clouds::test
