#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

namespace clouds {
namespace {

TEST(Codec, RoundTripScalars) {
  Encoder e;
  e.u8(0xab);
  e.u16(0xbeef);
  e.u32(0xdeadbeef);
  e.u64(0x0123456789abcdefULL);
  e.i64(-42);
  e.f64(3.14159);
  e.boolean(true);
  e.boolean(false);

  Decoder d(e.buffer());
  EXPECT_EQ(d.u8().value(), 0xab);
  EXPECT_EQ(d.u16().value(), 0xbeef);
  EXPECT_EQ(d.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(d.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(d.i64().value(), -42);
  EXPECT_DOUBLE_EQ(d.f64().value(), 3.14159);
  EXPECT_TRUE(d.boolean().value());
  EXPECT_FALSE(d.boolean().value());
  EXPECT_TRUE(d.atEnd());
}

TEST(Codec, RoundTripStringsAndBytes) {
  Encoder e;
  e.str("hello clouds");
  e.str("");
  Bytes blob = toBytes("binary\0data");
  e.bytes(blob);
  e.sysname(Sysname(7, 9));

  Decoder d(e.buffer());
  EXPECT_EQ(d.str().value(), "hello clouds");
  EXPECT_EQ(d.str().value(), "");
  EXPECT_EQ(d.bytes().value(), blob);
  EXPECT_EQ(d.sysname().value(), Sysname(7, 9));
}

TEST(Codec, UnderflowIsError) {
  Encoder e;
  e.u16(77);
  Decoder d(e.buffer());
  EXPECT_TRUE(d.u16().ok());
  auto r = d.u32();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::bad_argument);
}

TEST(Codec, TruncatedStringIsError) {
  Encoder e;
  e.u32(100);  // claims 100 bytes follow; none do
  Decoder d(e.buffer());
  EXPECT_FALSE(d.str().ok());
}

TEST(Codec, BadBooleanRejected) {
  Encoder e;
  e.u8(7);
  Decoder d(e.buffer());
  EXPECT_FALSE(d.boolean().ok());
}

TEST(Codec, ExtremeValues) {
  Encoder e;
  e.i64(std::numeric_limits<std::int64_t>::min());
  e.i64(std::numeric_limits<std::int64_t>::max());
  e.f64(std::numeric_limits<double>::infinity());
  e.f64(-0.0);
  Decoder d(e.buffer());
  EXPECT_EQ(d.i64().value(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(d.i64().value(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(d.f64().value(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(d.f64().value(), -0.0);
}

TEST(Result, TryMacroPropagates) {
  auto inner = []() -> Result<int> { return makeError(Errc::timeout, "t"); };
  auto outer = [&]() -> Result<std::string> {
    CLOUDS_TRY_ASSIGN(v, inner());
    return std::to_string(v);
  };
  auto r = outer();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::timeout);
}

TEST(Codec, ImagesTravelByReferenceWithTheWireBytesOfBytes) {
  const SharedBytes page(Bytes(8192, std::byte{0x3c}));
  Encoder by_ref;
  by_ref.u32(7);
  by_ref.image(page);
  by_ref.str("tail");
  Encoder by_copy;
  by_copy.u32(7);
  by_copy.bytes(page);
  by_copy.str("tail");
  EXPECT_EQ(by_ref.size(), by_copy.size());
  const Message message = std::move(by_ref).message();
  EXPECT_EQ(message.flatten(), by_copy.buffer());
  EXPECT_EQ(message.runCount(), 3u);  // head, the image, tail

  Decoder d(message);
  EXPECT_EQ(d.u32().value(), 7u);
  const SharedBytes got = d.image().value();
  EXPECT_TRUE(got.sameBuffer(page));
  EXPECT_EQ(d.str().value(), "tail");
  EXPECT_TRUE(d.atEnd());
}

TEST(Codec, FragmentViewsJoinBackIntoTheSendersBuffers) {
  const SharedBytes page(Bytes(8192, std::byte{0x5e}));
  Encoder e;
  e.u64(99);
  e.image(page);
  const Message message = std::move(e).message();
  // Cut as RaTP does, into 1481-byte views, and join them again.
  Message joined;
  for (std::size_t off = 0; off < message.size(); off += 1481) {
    joined.append(message.slice(off, std::min<std::size_t>(1481, message.size() - off)));
  }
  EXPECT_EQ(joined.size(), message.size());
  EXPECT_EQ(joined.runCount(), 2u);
  Decoder d(joined);
  EXPECT_EQ(d.u64().value(), 99u);
  EXPECT_TRUE(d.image().value().sameBuffer(page));
}

TEST(Codec, ADecodedImageNeverPinsALargerBuffer) {
  // A page that arrives inside one contiguous buffer (a flat message, or a
  // view of a larger buffer) is copied out into a buffer of its own size.
  const SharedBytes page(Bytes(8192, std::byte{0x61}));
  Encoder e;
  e.u8(1);
  e.bytes(page);
  const Bytes flat = std::move(e).take();
  const Message contiguous(flat);
  Decoder d(contiguous);
  EXPECT_EQ(d.u8().value(), 1u);
  const SharedBytes copied = d.image().value();
  EXPECT_EQ(copied.size(), 8192u);
  EXPECT_FALSE(copied.sameBuffer(page));
  EXPECT_EQ(copied, page);

  // The image's own buffer, but only part of it: also copied.
  Encoder part;
  part.u32(4096);
  Message partial = std::move(part).message();
  partial.append(Message::Run{page, 0, 4096});
  Decoder dp(partial);
  const SharedBytes half = dp.image().value();
  EXPECT_EQ(half.size(), 4096u);
  EXPECT_FALSE(half.sameBuffer(page));
  EXPECT_TRUE(dp.atEnd());
}

TEST(Result, VoidResult) {
  Result<void> ok = okResult();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = makeError(Errc::io, "disk");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::io);
}

}  // namespace
}  // namespace clouds
