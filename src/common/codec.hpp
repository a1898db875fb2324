// Flat binary encoder/decoder for everything that crosses a simulated wire
// or is stored in a segment header: RaTP payloads, invocation parameters,
// DSM protocol messages, commit logs.
//
// Encoding is little-endian, length-prefixed, with no alignment padding, so
// a message's wire size is well defined — the network cost model charges for
// exactly these bytes. A shared buffer (a page image) is encoded like any
// byte string but carried by reference: the encoder splices it into the
// message it builds, and a decoder of that message hands the same buffer
// back.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/message.hpp"
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
  // The same wire bytes as bytes(b), with b carried by reference.
  void image(const SharedBytes& b);
  void sysname(const Sysname& s) {
    u64(s.hi());
    u64(s.lo());
  }

  // Size the buffer for a message of n bytes up front.
  void reserve(std::size_t n) { buf_.reserve(n); }

  // The encoded bytes of an encoder that carries no image.
  const Bytes& buffer() const& noexcept {
    assert(refs_.empty());
    return buf_;
  }
  // The encoded message: images by reference.
  Message message() &&;
  // The encoded bytes in one buffer (images copied in).
  Bytes take() &&;
  std::size_t size() const noexcept { return buf_.size() + ref_bytes_; }

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
  // Images carried by reference, each spliced in before buf_[at].
  std::vector<std::pair<std::size_t, SharedBytes>> refs_;
  std::size_t ref_bytes_ = 0;
};

class Decoder {
 public:
  explicit Decoder(ByteSpan data) : cur_(data), remaining_(data.size()) {}
  explicit Decoder(const Bytes& data) : Decoder(ByteSpan(data)) {}
  // The message must outlive the decoder.
  explicit Decoder(const Message& message);

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16() { return readInt<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return readInt<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return readInt<std::uint64_t>(); }
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<bool> boolean();
  Result<std::string> str();
  Result<Bytes> bytes();
  // A bytes() field as a shared buffer: the message's own buffer when the
  // field is one whole buffer the message carries (an Encoder::image), so
  // no page is copied and none pins a larger buffer; else a copy.
  Result<SharedBytes> image();
  Result<Sysname> sysname();

  std::size_t remaining() const noexcept { return remaining_; }
  bool atEnd() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  Result<T> readInt() {
    static_assert(std::is_unsigned_v<T>);
    if (remaining() < sizeof(T)) return underflow(sizeof(T));
    std::byte tmp[sizeof(T)];
    const std::byte* p = tmp;
    if (cur_.size() - pos_ >= sizeof(T)) {
      p = cur_.data() + pos_;
      pos_ += sizeof(T);
      remaining_ -= sizeof(T);
    } else {
      read(tmp, sizeof(T));
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(p[i])) << (8 * i);
    }
    return v;
  }
  // Copies the next n bytes (n <= remaining()) across runs.
  void read(std::byte* out, std::size_t n);
  Error underflow(std::size_t want) const;

  const Message* message_ = nullptr;  // null: one span, no shared buffers
  std::size_t run_ = 0;               // index of cur_ in message_
  ByteSpan cur_;
  std::size_t pos_ = 0;  // position in cur_
  std::size_t remaining_ = 0;
};

// Whole-file host I/O for snapshots: write `data` as the file at `path`, or
// read a file back. Failures are Errc::io naming the path.
Result<void> writeHostFile(const std::string& path, ByteSpan data);
Result<Bytes> readHostFile(const std::string& path);

}  // namespace clouds
