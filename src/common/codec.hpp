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
//
// Every format one node writes and another reads, or one run writes and a
// later one loads, is stated once, as a field list that its encoder and
// decoder both walk: RaTP fragment headers, the RaTP services' requests and
// replies, invocation values, load reports, object headers and forward
// records, the comparators' frames, store and name-server snapshots, and
// the records objects keep in their segments (the social app's shard
// directory, a mailbox slot). Only this file's Writer and Reader call the
// Encoder's and Decoder's field methods.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
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

// ---------------------------------------------------------------- field lists
//
// A struct states its layout once, as `static void fields(Self& s, F& f)`
// calling f(field) on each field in wire order (Self is const to encode).
// Writer walks it to encode, Reader to decode. A field is an integer, bool,
// double, enum (one byte), Sysname, string, Bytes, SharedBytes (an image,
// by reference), vector (a u32 count, then each element), map (a u32
// count, then each key and its value), struct with its own list, or a
// marker below. A list may branch on a field already walked: a
// request on its op byte, a reply on its status byte (Errc, 0 = ok).
// f.require(holds, text) refuses the value just read when `holds` is false;
// a list whose op names none ends in f.require(false, ...). A writer writes
// what it is given; a reader refuses with bad_argument.
namespace codec {

// A field that always holds `value` (a magic number, a version), refused on
// read when it differs. `refusal` is a text or a function of the value read.
template <typename T, typename Refusal>
struct Constant {
  T value;
  Refusal refusal;
};

// A vector of at most `max` elements: the writer writes the first `max`; a
// reader refuses a larger count, with `refusal` (of the count), before it
// reads an element.
template <typename V, typename Refusal>
struct Capped {
  V& list;
  std::size_t max;
  Refusal refusal;
};

class Writer {
 public:
  explicit Writer(Encoder& e) : e_(e) {}
  void operator()(std::uint8_t v) { e_.u8(v); }
  void operator()(std::uint16_t v) { e_.u16(v); }
  void operator()(std::uint32_t v) { e_.u32(v); }
  void operator()(std::uint64_t v) { e_.u64(v); }
  void operator()(std::int64_t v) { e_.i64(v); }
  void operator()(double v) { e_.f64(v); }
  void operator()(bool v) { e_.boolean(v); }
  void operator()(const Sysname& s) { e_.sysname(s); }
  void operator()(const std::string& s) { e_.str(s); }
  void operator()(const Bytes& b) { e_.bytes(b); }
  void operator()(const SharedBytes& b) { e_.image(b); }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(const E& v) {
    e_.u8(static_cast<std::uint8_t>(v));
  }
  template <typename T>
  void operator()(const std::vector<T>& list) {
    (*this)(Capped{list, list.size(), ""});
  }
  template <typename V, typename R>
  void operator()(const Capped<V, R>& c) {
    const std::size_t n = std::min(c.list.size(), c.max);
    e_.u32(static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) (*this)(c.list[i]);
  }
  template <typename K, typename V>
  void operator()(const std::map<K, V>& map) {
    e_.u32(static_cast<std::uint32_t>(map.size()));
    for (const auto& [key, value] : map) {
      (*this)(key);
      (*this)(value);
    }
  }
  template <typename T, typename R>
  void operator()(const Constant<T, R>& c) {
    (*this)(c.value);
  }
  template <typename T>
  void operator()(const T& s) {
    T::fields(s, *this);
  }
  template <typename Refusal>
  void require(bool, const Refusal&) {}

 private:
  Encoder& e_;
};

// Reads nothing after the first field that does not decode or is refused;
// status() is that error.
class Reader {
 public:
  // How deep structs may nest. A value list may hold value lists, so the
  // depth comes off the wire: past this it is refused, not recursed into.
  static constexpr int kMaxNesting = 64;

  explicit Reader(Decoder& d) : d_(d) {}
  Result<void> status() const { return error_ ? Result<void>(*error_) : okResult(); }
  void operator()(std::uint8_t& v) { read(v, &Decoder::u8); }
  void operator()(std::uint16_t& v) { read(v, &Decoder::u16); }
  void operator()(std::uint32_t& v) { read(v, &Decoder::u32); }
  void operator()(std::uint64_t& v) { read(v, &Decoder::u64); }
  void operator()(std::int64_t& v) { read(v, &Decoder::i64); }
  void operator()(double& v) { read(v, &Decoder::f64); }
  void operator()(bool& v) { read(v, &Decoder::boolean); }
  void operator()(Sysname& s) { read(s, &Decoder::sysname); }
  void operator()(std::string& s) { read(s, &Decoder::str); }
  void operator()(Bytes& b) { read(b, &Decoder::bytes); }
  void operator()(SharedBytes& b) { read(b, &Decoder::image); }
  template <typename E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    std::uint8_t raw = 0;
    (*this)(raw);
    v = static_cast<E>(raw);
  }
  template <typename T>
  void operator()(std::vector<T>& list) {
    std::uint32_t n = 0;
    (*this)(n);
    readList(list, n);
  }
  template <typename V, typename R>
  void operator()(const Capped<V, R>& c) {
    std::uint32_t n = 0;
    (*this)(n);
    if (!error_ && n > c.max) refuse(c.refusal, n);
    if (!error_) c.list.reserve(n);  // within the format's cap
    readList(c.list, n);
  }
  // Entry by entry; the first of a repeated key stays.
  template <typename K, typename V>
  void operator()(std::map<K, V>& map) {
    std::uint32_t n = 0;
    (*this)(n);
    map.clear();
    for (std::uint32_t i = 0; i < n && !error_; ++i) {
      K key{};
      V value{};
      (*this)(key);
      (*this)(value);
      if (!error_) map.emplace(std::move(key), std::move(value));
    }
  }
  template <typename T, typename R>
  void operator()(const Constant<T, R>& c) {
    T got{};
    (*this)(got);
    if (!error_ && got != c.value) refuse(c.refusal, got);
  }
  template <typename T>
  void operator()(T& s) {
    require(depth_ < kMaxNesting, "fields nested too deep");
    if (error_) return;
    ++depth_;
    T::fields(s, *this);
    --depth_;
  }
  template <typename Refusal>
  void require(bool holds, const Refusal& refusal) {
    if (!error_ && !holds) refuse(refusal);
  }

 private:
  // Element by element: a count off the wire is never reserved unchecked.
  template <typename V>
  void readList(V& list, std::uint32_t n) {
    list.clear();
    for (std::uint32_t i = 0; i < n && !error_; ++i) (*this)(list.emplace_back());
  }
  template <typename T, typename Decoded>
  void read(T& out, Result<Decoded> (Decoder::*decode)()) {
    if (error_) return;
    auto r = (d_.*decode)();
    if (!r.ok()) error_ = r.error();
    if (!error_) out = std::move(r).value();
  }
  template <typename Refusal, typename... Got>
  void refuse(const Refusal& refusal, const Got&... got) {
    if constexpr (std::is_invocable_v<const Refusal&, const Got&...>) {
      error_ = makeError(Errc::bad_argument, refusal(got...));
    } else {
      error_ = makeError(Errc::bad_argument, refusal);
    }
  }

  Decoder& d_;
  std::optional<Error> error_;
  int depth_ = 0;
};

// `v` encoded: take .message() (images by reference) or .take().
template <typename T>
Encoder encode(const T& v) {
  Encoder e;
  Writer{e}(v);
  return e;
}

// A `T` read from `d` into `v`, which may carry what is not on the wire (a
// reply's op). Bytes after the last field are left unread.
template <typename T>
Result<T> read(Decoder& d, T v = {}) {
  Reader r(d);
  r(v);
  CLOUDS_TRY(r.status());
  return v;
}

// read() from the start of a Message, Bytes or ByteSpan.
template <typename T, typename Source>
Result<T> decode(const Source& source, T v = {}) {
  Decoder d(source);
  return read(d, std::move(v));
}

// A service reply whose status is ok; a reply with any other status is the
// error: its status, with the text `failure(reply)`.
template <typename Reply, typename Failure>
Result<Reply> decodeReply(const Message& message, Reply init, Failure failure) {
  auto reply = decode(message, std::move(init));
  if (reply.ok() && reply.value().status != Errc::ok) {
    return makeError(reply.value().status, failure(reply.value()));
  }
  return reply;
}

}  // namespace codec

// Whole-file host I/O for snapshots: write `data` as the file at `path`, or
// read a file back. Failures are Errc::io naming the path.
Result<void> writeHostFile(const std::string& path, ByteSpan data);
Result<Bytes> readHostFile(const std::string& path);

}  // namespace clouds
