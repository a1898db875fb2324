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

// ---------------------------------------------------------------- field lists

enum class Kind : std::uint8_t { plain = 1, counted = 2 };

struct Item {
  std::uint32_t id = 0;
  std::string tag{};

  template <typename I, typename F>
  static void fields(I& i, F& f) {
    f(i.id);
    f(i.tag);
    f.require(i.tag.size() <= 4, "tag too long");
  }
};

// One field of each kind the walkers carry, and each marker.
struct Sample {
  Kind kind = Kind::plain;
  std::uint64_t count = 0;  // counted only: a branch on a field already walked
  std::int64_t delta = 0;
  bool flag = false;
  Sysname name{};
  Bytes blob{};
  SharedBytes image{};
  std::vector<Item> items{};
  std::vector<std::uint32_t> few{};

  template <typename S, typename F>
  static void fields(S& s, F& f) {
    f(codec::Constant{std::uint32_t{0xFEED}, "bad magic"});
    f(codec::Constant{std::uint8_t{1}, [](std::uint8_t v) {
                        return "version " + std::to_string(v);
                      }});
    f(s.kind);
    if (s.kind == Kind::counted) f(s.count);
    f(s.delta);
    f(s.flag);
    f(s.name);
    f(s.blob);
    f(s.image);
    f(s.items);
    f(codec::Capped{s.few, 2, [](std::uint32_t n) { return std::to_string(n) + " too many"; }});
  }
};

Sample sample() {
  Sample s;
  s.kind = Kind::counted;
  s.count = 7;
  s.delta = -3;
  s.flag = true;
  s.name = Sysname(5, 6);
  s.blob = toBytes("blob");
  s.image = SharedBytes(toBytes("image"));
  s.items = {{1, "a"}, {2, "bb"}};
  s.few = {9, 10};
  return s;
}

TEST(Codec, FieldListRoundTripsAndRefusesEveryPrefix) {
  const Message wire = codec::encode(sample()).message();
  auto back = codec::decode<Sample>(wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().count, 7u);
  EXPECT_EQ(back.value().delta, -3);
  EXPECT_EQ(back.value().name, Sysname(5, 6));
  EXPECT_EQ(back.value().image, SharedBytes(toBytes("image")));
  ASSERT_EQ(back.value().items.size(), 2u);
  EXPECT_EQ(back.value().items[1].tag, "bb");
  EXPECT_EQ(back.value().few, (std::vector<std::uint32_t>{9, 10}));
  EXPECT_EQ(codec::encode(back.value()).take(), wire.flatten());
  // The branch: a plain sample carries no count.
  Sample plain = sample();
  plain.kind = Kind::plain;
  EXPECT_EQ(codec::encode(plain).size(), codec::encode(sample()).size() - 8);

  const Bytes flat = wire.flatten();
  for (std::size_t n = 0; n < flat.size(); ++n) {
    auto cut = codec::decode<Sample>(Bytes(flat.begin(), flat.begin() + n));
    ASSERT_FALSE(cut.ok()) << "cut to " << n;
    EXPECT_EQ(cut.error().code, Errc::bad_argument);
  }
}

TEST(Codec, FieldListRefusalsNameWhatIsWrong) {
  const Bytes flat = codec::encode(sample()).take();
  auto refusal = [](Bytes bytes) { return codec::decode<Sample>(bytes).error().message; };
  Bytes magic = flat;
  magic[0] = std::byte{0};
  EXPECT_EQ(refusal(magic), "bad magic");
  Bytes version = flat;
  version[4] = std::byte{3};
  EXPECT_EQ(refusal(version), "version 3");

  Sample wordy = sample();
  wordy.items[0].tag = "longer";
  EXPECT_EQ(refusal(codec::encode(wordy).take()), "tag too long");

  // A capped list: the writer sends the first `max`, a reader refuses more.
  Sample crowded = sample();
  crowded.few = {1, 2, 3};
  auto capped = codec::decode<Sample>(codec::encode(crowded).take());
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().few, (std::vector<std::uint32_t>{1, 2}));
  Bytes count = flat;
  count[flat.size() - 12] = std::byte{3};  // the capped list's count
  EXPECT_EQ(refusal(count), "3 too many");

  // A list's count is read element by element, never reserved: a count of
  // 2^32 - 1 over a short buffer is an underflow, not an allocation.
  Encoder e;
  e.u32(0xFFFFFFFFu);
  e.u32(1);
  auto items = codec::decode<std::vector<Item>>(std::move(e).take());
  ASSERT_FALSE(items.ok());
  EXPECT_EQ(items.error().code, Errc::bad_argument);
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
