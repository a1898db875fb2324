#include "common/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
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

void Encoder::image(const SharedBytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  if (b.empty()) return;
  refs_.emplace_back(buf_.size(), b);
  ref_bytes_ += b.size();
}

Message Encoder::message() && {
  if (refs_.empty()) return Message(std::move(buf_));
  const SharedBytes head(std::move(buf_));
  Message m;
  std::size_t at = 0;
  for (const auto& [splice, image] : refs_) {
    m.append(Message::Run{head, at, splice - at});
    m.append(Message::Run{image, 0, image.size()});
    at = splice;
  }
  m.append(Message::Run{head, at, head.size() - at});
  return m;
}

Bytes Encoder::take() && {
  if (refs_.empty()) return std::move(buf_);
  return std::move(*this).message().flatten();
}

void Encoder::raw(const void* p, std::size_t n) {
  // The first write reserves 64 bytes, so a message that stays within them
  // allocates once instead of at each doubling as its fields go in.
  constexpr std::size_t kFirstReserve = 64;
  if (buf_.capacity() == 0) buf_.reserve(std::max(n, kFirstReserve));
  const auto* b = static_cast<const std::byte*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

Decoder::Decoder(const Message& message) : message_(&message), remaining_(message.size()) {
  if (message.runCount() != 0) cur_ = message.run(0).bytes();
}

void Decoder::read(std::byte* out, std::size_t n) {
  remaining_ -= n;
  while (n > 0) {
    if (pos_ == cur_.size()) {
      cur_ = message_->run(++run_).bytes();
      pos_ = 0;
    }
    const std::size_t take = std::min(n, cur_.size() - pos_);
    std::memcpy(out, cur_.data() + pos_, take);
    out += take;
    pos_ += take;
    n -= take;
  }
}

Result<std::uint8_t> Decoder::u8() {
  if (remaining() < 1) return underflow(1);
  std::byte b;
  if (pos_ < cur_.size()) {
    b = cur_[pos_++];
    --remaining_;
  } else {
    read(&b, 1);
  }
  return static_cast<std::uint8_t>(b);
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
  std::string s(n, '\0');
  read(reinterpret_cast<std::byte*>(s.data()), n);
  return s;
}

Result<Bytes> Decoder::bytes() {
  CLOUDS_TRY_ASSIGN(n, u32());
  if (remaining() < n) return underflow(n);
  Bytes b(n);
  read(b.data(), n);
  return b;
}

Result<SharedBytes> Decoder::image() {
  CLOUDS_TRY_ASSIGN(n, u32());
  if (remaining() < n) return underflow(n);
  if (message_ != nullptr && n != 0) {
    if (pos_ == cur_.size()) {
      cur_ = message_->run(++run_).bytes();
      pos_ = 0;
    }
    const Message::Run& r = message_->run(run_);
    if (pos_ == 0 && r.off == 0 && r.len == n && r.buf.size() == n) {
      pos_ = n;
      remaining_ -= n;
      return r.buf;
    }
  }
  Bytes b(n);
  read(b.data(), n);
  return SharedBytes(std::move(b));
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

Result<void> writeHostFile(const std::string& path, ByteSpan data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return makeError(Errc::io, "cannot open " + path);
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!ok) return makeError(Errc::io, "short write to " + path);
  return okResult();
}

Result<Bytes> readHostFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return makeError(Errc::io, "cannot open " + path);
  Bytes buf;
  std::byte tmp[65536];
  std::size_t n = 0;
  while ((n = std::fread(tmp, 1, sizeof(tmp), f)) > 0) buf.insert(buf.end(), tmp, tmp + n);
  std::fclose(f);
  return buf;
}

}  // namespace clouds
