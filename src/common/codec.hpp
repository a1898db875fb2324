// Flat binary encoder/decoder for everything that crosses a simulated wire
// or is stored in a segment header: RaTP payloads, invocation parameters,
// DSM protocol messages, commit logs.
//
// Encoding is little-endian, length-prefixed, with no alignment padding, so
// a message's wire size is well defined — the network cost model charges for
// exactly these bytes.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/sysname.hpp"

namespace clouds {

class Encoder {
 public:
  Encoder() = default;

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v) { writeInt(v); }
  void u32(std::uint32_t v) { writeInt(v); }
  void u64(std::uint64_t v) { writeInt(v); }
  void i64(std::int64_t v) { writeInt(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void bytes(ByteSpan b);
  void sysname(const Sysname& s) {
    u64(s.hi());
    u64(s.lo());
  }

  // Size the buffer for a message of n bytes up front.
  void reserve(std::size_t n) { buf_.reserve(n); }

  const Bytes& buffer() const& noexcept { return buf_; }
  Bytes take() && noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename T>
  void writeInt(T v) {
    static_assert(std::is_unsigned_v<T>);
    std::uint8_t tmp[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) tmp[i] = static_cast<std::uint8_t>(v >> (8 * i));
    raw(tmp, sizeof(T));
  }
  void raw(const void* p, std::size_t n);

  Bytes buf_;
};

class Decoder {
 public:
  explicit Decoder(ByteSpan data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16() { return readInt<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return readInt<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return readInt<std::uint64_t>(); }
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<bool> boolean();
  Result<std::string> str();
  Result<Bytes> bytes();
  Result<Sysname> sysname();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool atEnd() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  Result<T> readInt() {
    static_assert(std::is_unsigned_v<T>);
    if (remaining() < sizeof(T)) return underflow(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }
  Error underflow(std::size_t want) const;

  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace clouds
