#include "common/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace clouds {

void Encoder::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Encoder::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(s.data(), s.size());
}

void Encoder::bytes(ByteSpan b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b.data(), b.size());
}

void Encoder::raw(const void* p, std::size_t n) {
  // The first write reserves 64 bytes, so a message that stays within them
  // allocates once instead of at each doubling as its fields go in.
  constexpr std::size_t kFirstReserve = 64;
  if (buf_.capacity() == 0) buf_.reserve(std::max(n, kFirstReserve));
  const auto* b = static_cast<const std::byte*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

Result<std::uint8_t> Decoder::u8() {
  if (remaining() < 1) return underflow(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

Result<std::int64_t> Decoder::i64() {
  CLOUDS_TRY_ASSIGN(v, u64());
  return static_cast<std::int64_t>(v);
}

Result<double> Decoder::f64() {
  CLOUDS_TRY_ASSIGN(bits, u64());
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<bool> Decoder::boolean() {
  CLOUDS_TRY_ASSIGN(v, u8());
  if (v > 1) return makeError(Errc::bad_argument, "boolean field not 0/1");
  return v == 1;
}

Result<std::string> Decoder::str() {
  CLOUDS_TRY_ASSIGN(n, u32());
  if (remaining() < n) return underflow(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

Result<Bytes> Decoder::bytes() {
  CLOUDS_TRY_ASSIGN(n, u32());
  if (remaining() < n) return underflow(n);
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

Result<Sysname> Decoder::sysname() {
  CLOUDS_TRY_ASSIGN(hi, u64());
  CLOUDS_TRY_ASSIGN(lo, u64());
  return Sysname(hi, lo);
}

Error Decoder::underflow(std::size_t want) const {
  return makeError(Errc::bad_argument,
                   "decode underflow: want " + std::to_string(want) + " bytes, have " +
                       std::to_string(remaining()));
}

}  // namespace clouds
