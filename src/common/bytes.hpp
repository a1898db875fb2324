// Byte-buffer aliases used throughout the Clouds reproduction.
//
// All data that crosses an object/address-space boundary (RaTP payloads,
// page images, invocation parameters) is represented as raw bytes: the paper
// mandates that "arguments/results are strictly data; they may not be
// addresses".
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace clouds {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;
using MutableByteSpan = std::span<std::byte>;

// An immutable byte buffer shared by reference. A page image travels from a
// data server's store through its grant, the reply and the client's frame,
// and back through write-backs, prepares and the log, as one SharedBytes:
// copying one copies a reference, never the bytes. A holder that must change
// the bytes first takes a private copy unless it is the only holder
// (copy-on-write, see dsm::DsmClientPartition::resolvePage).
class SharedBytes {
 public:
  SharedBytes() = default;
  // Implicit: the bytes become a new shared buffer.
  SharedBytes(Bytes bytes) : p_(std::make_shared<Bytes>(std::move(bytes))) {}
  explicit SharedBytes(ByteSpan bytes) : SharedBytes(Bytes(bytes.begin(), bytes.end())) {}

  const std::byte* data() const noexcept { return p_ ? p_->data() : nullptr; }
  std::size_t size() const noexcept { return p_ ? p_->size() : 0; }
  bool empty() const noexcept { return size() == 0; }
  const std::byte& operator[](std::size_t i) const noexcept { return (*p_)[i]; }
  operator ByteSpan() const noexcept { return ByteSpan(data(), size()); }

  // True when this is the buffer's only holder: only then may it change.
  bool unique() const noexcept { return p_.use_count() == 1; }
  std::byte* mutableData() noexcept {
    assert(unique());
    return p_->data();
  }
  bool sameBuffer(const SharedBytes& other) const noexcept { return p_ == other.p_; }

  friend bool operator==(const SharedBytes& a, const SharedBytes& b) noexcept {
    return a.size() == b.size() &&
           (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

 private:
  // Mutable only through mutableData(), by its only holder.
  std::shared_ptr<Bytes> p_;
};

inline Bytes toBytes(std::string_view s) {
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

inline std::string toString(ByteSpan b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// FNV-1a 64-bit hash; used for trace digests and content checks in tests.
inline std::uint64_t fnv1a(ByteSpan data, std::uint64_t seed = 0xcbf29ce484222325ULL) {
  std::uint64_t h = seed;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s, std::uint64_t seed = 0xcbf29ce484222325ULL) {
  return fnv1a(ByteSpan(reinterpret_cast<const std::byte*>(s.data()), s.size()), seed);
}

}  // namespace clouds
