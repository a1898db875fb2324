// Every layout one node writes and another reads, pinned byte for byte
// against the tables in docs/PROTOCOLS.md, docs/SCHEDULING.md and
// docs/MIGRATION.md, written out by hand (tests/wire.hpp), and read back.
// DsmCodec.EveryOpEncodesItsDocumentedLayout (dsm_sync_test.cpp) pins the
// DSM requests.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "clouds/object.hpp"
#include "clouds/runtime.hpp"
#include "common/codec.hpp"
#include "dsm/protocol.hpp"
#include "migrate/protocol.hpp"
#include "sched/report.hpp"
#include "sysobj/name_server.hpp"
#include "sysobj/user_io.hpp"
#include "wire.hpp"

namespace clouds::test {
namespace {

constexpr auto u8of(Errc c) { return static_cast<std::uint8_t>(c); }

// `value` encodes to `wire`, and `wire` decodes (starting from `init`,
// which carries what is not on the wire) to a value that encodes to `wire`
// again.
template <typename T>
void expectLayout(const T& value, const Bytes& wire, const std::string& what, T init = {}) {
  EXPECT_EQ(codec::encode(value).take(), wire) << what;
  auto back = codec::decode(Message(wire), std::move(init));
  ASSERT_TRUE(back.ok()) << what << ": " << back.error().message;
  EXPECT_EQ(codec::encode(back.value()).take(), wire) << what;
}

const Sysname kSeg(0x2122232425262728, 0x3132333435363738);
const Sysname kOther(0x4142434445464748, 0x5152535455565758);
const Bytes kImage{std::byte{0xA1}, std::byte{0xA2}, std::byte{0xA3}};

// One reply of each shape of both DSM services: a status byte, then what
// the op and that status call for.
TEST(DsmCodec, EveryReplyShapeEncodesItsDocumentedLayout) {
  using dsm::Op;
  using dsm::Reply;
  const auto ok = u8of(Errc::ok);
  Reply grant{.op = Op::read_page, .grant = {.version = 9}};
  grant.grant.data = SharedBytes(kImage);
  expectLayout(grant, Wire().u8(ok).u64(9).u8(0).image(kImage).bytes, "grant",
               {.op = Op::read_page});
  expectLayout(Reply{.op = Op::write_page, .grant = {.version = 9, .zero_fill = true}},
               Wire().u8(ok).u64(9).u8(1).bytes, "zero-fill grant", {.op = Op::write_page});
  expectLayout(Reply{.op = Op::create_segment, .segment = kSeg}, Wire().u8(ok).sysname(kSeg).bytes,
               "create_segment", {.op = Op::create_segment});
  expectLayout(Reply{.op = Op::stat_segment, .info = {kSeg, 3 * ra::kPageSize, true}},
               Wire().u8(ok).sysname(kSeg).u64(3 * ra::kPageSize).u8(1).bytes, "stat_segment",
               {.op = Op::stat_segment});
  expectLayout(Reply{.op = Op::sem_create, .sem = 0x0000006400000007},
               Wire().u8(ok).u64(0x0000006400000007).bytes, "sem_create",
               {.op = Op::sem_create});
  Reply surrender{.op = Op::invalidate, .dirty = true};
  surrender.image = SharedBytes(kImage);
  expectLayout(surrender, Wire().u8(ok).u8(1).image(kImage).bytes, "dirty surrender",
               {.op = Op::invalidate});
  expectLayout(Reply{.op = Op::degrade}, Wire().u8(ok).u8(0).bytes, "clean surrender",
               {.op = Op::degrade});
  expectLayout(Reply{.op = Op::lock}, Wire().u8(ok).bytes, "status only", {.op = Op::lock});
  // A failed status is the whole reply, whatever the op.
  expectLayout(Reply{.op = Op::read_page, .status = Errc::not_found},
               Wire().u8(u8of(Errc::not_found)).bytes, "failed grant", {.op = Op::read_page});
  expectLayout(Reply{.op = Op::invalidate, .status = Errc::busy},
               Wire().u8(u8of(Errc::busy)).bytes, "busy holder", {.op = Op::invalidate});

  // The client reports a failed status under the op's name.
  const auto failed = dsm::decodeReply(Op::lock, Message(Wire().u8(u8of(Errc::deadlock)).bytes));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, Errc::deadlock);
  EXPECT_EQ(failed.error().message, "lock failed remotely");
  const auto cut = dsm::decodeReply(Op::read_page, Message(Wire().u8(0).u64(9).bytes));
  EXPECT_EQ(cut.code(), Errc::bad_argument);
}

TEST(NameCodec, EveryRequestAndReplyEncodesItsDocumentedLayout) {
  using sysobj::NameOp;
  using sysobj::NameReply;
  using sysobj::NameRequest;
  expectLayout(NameRequest{.op = NameOp::bind, .name = "alpha", .replace = true,
                           .sysnames = {kSeg, kOther}},
               Wire().u8(50).str("alpha").u8(1).u32(2).sysname(kSeg).sysname(kOther).bytes,
               "bind");
  expectLayout(NameRequest{.op = NameOp::lookup, .name = "alpha"},
               Wire().u8(51).str("alpha").bytes, "lookup");
  expectLayout(NameRequest{.op = NameOp::unbind, .name = "alpha"},
               Wire().u8(52).str("alpha").bytes, "unbind");
  expectLayout(NameRequest{.op = NameOp::list}, Wire().u8(53).bytes, "list");
  expectLayout(NameRequest{.op = NameOp::forward, .from = kSeg, .to = kOther},
               Wire().u8(54).sysname(kSeg).sysname(kOther).bytes, "forward");

  expectLayout(NameReply{.op = NameOp::lookup, .sysnames = {kSeg}},
               Wire().u8(0).u32(1).sysname(kSeg).bytes, "lookup reply",
               {.op = NameOp::lookup});
  expectLayout(NameReply{.op = NameOp::list, .names = {"a", "bc"}},
               Wire().u8(0).u32(2).str("a").str("bc").bytes, "list reply",
               {.op = NameOp::list});
  expectLayout(NameReply{.op = NameOp::bind}, Wire().u8(0).bytes, "bind reply",
               {.op = NameOp::bind});
  expectLayout(NameReply{.op = NameOp::lookup, .status = Errc::not_found},
               Wire().u8(u8of(Errc::not_found)).bytes, "failed lookup", {.op = NameOp::lookup});
}

TEST(IoCodec, EveryRequestAndReplyEncodesItsDocumentedLayout) {
  using sysobj::IoOp;
  using sysobj::IoReply;
  using sysobj::IoRequest;
  expectLayout(IoRequest{.op = IoOp::write, .window = 7, .text = "hi"},
               Wire().u8(60).u32(7).str("hi").bytes, "write");
  expectLayout(IoRequest{.op = IoOp::read_line, .window = 7}, Wire().u8(61).u32(7).bytes,
               "read_line");
  expectLayout(IoReply{.op = IoOp::read_line, .line = "typed"}, Wire().u8(0).str("typed").bytes,
               "read_line reply", {.op = IoOp::read_line});
  expectLayout(IoReply{.op = IoOp::write}, Wire().u8(0).bytes, "write reply",
               {.op = IoOp::write});
  expectLayout(IoReply{.op = IoOp::read_line, .status = Errc::not_found},
               Wire().u8(u8of(Errc::not_found)).bytes, "no input", {.op = IoOp::read_line});
}

TEST(InvokeCodec, RequestAndBothReplyShapesEncodeTheirDocumentedLayout) {
  const Bytes args = obj::Value::encodeList({obj::Value{std::int64_t{5}}});
  expectLayout(obj::InvokeRequest{.thread = 0x0102030405060708,
                                  .workstation = 200,
                                  .window = 3,
                                  .object = kSeg,
                                  .entry = "area",
                                  .args = args},
               Wire().u64(0x0102030405060708).u32(200).u32(3).sysname(kSeg).str("area")
                   .image(args).bytes,
               "invoke");
  expectLayout(obj::InvokeReply{.result = args}, Wire().u8(0).image(args).bytes, "result");
  expectLayout(obj::InvokeReply{.status = Errc::not_found, .error = "no entry"},
               Wire().u8(u8of(Errc::not_found)).str("no entry").bytes, "error");
}

TEST(LoadReport, EncodesItsDocumentedLayout) {
  sched::LoadReport r;
  r.node = 7;
  r.seq = 9;
  r.threads = 3;
  r.frame_permille = 417;
  r.ewma_latency_usec = 1234;
  r.homed_hot = 5;
  r.cached = {kSeg, kOther};
  const Bytes wire = Wire()
                         .u8(2)
                         .u32(7)
                         .u64(9)
                         .u32(3)
                         .u32(417)
                         .u64(1234)
                         .u32(5)
                         .u32(2)
                         .sysname(kSeg)
                         .sysname(kOther)
                         .bytes;
  expectLayout(r, wire, "report");
  EXPECT_EQ(r.encode(), wire);
  // The writer sends at most kMaxSegments digest entries.
  r.cached.assign(sched::LoadReport::kMaxSegments + 1, kSeg);
  auto capped = sched::LoadReport::decode(r.encode());
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().cached.size(), sched::LoadReport::kMaxSegments);
}

TEST(ObjectDescriptor, EncodesItsDocumentedLayout) {
  obj::ObjectDescriptor d;
  d.class_name = "rect";
  d.code_seg = kSeg;
  d.data_seg = kOther;
  d.pheap_seg = Sysname(1, 2);
  d.code_size = 8192;
  d.data_size = 16384;
  d.pheap_size = 24576;
  d.vheap_size = 32768;
  const Bytes wire = Wire()
                         .u32(0xC10D0B1E)
                         .str("rect")
                         .sysname(kSeg)
                         .sysname(kOther)
                         .sysname(Sysname(1, 2))
                         .u64(8192)
                         .u64(16384)
                         .u64(24576)
                         .u64(32768)
                         .bytes;
  expectLayout(d, wire, "descriptor");
  EXPECT_EQ(d.encode(), wire);
  // A header page is the descriptor, then zeroes.
  auto back = obj::ObjectDescriptor::decode(Wire(wire).padTo(ra::kPageSize).bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().class_name, "rect");
  EXPECT_EQ(back.value().vheap_size, 32768u);
  Bytes bad = wire;
  bad[0] = std::byte{0};
  EXPECT_EQ(obj::ObjectDescriptor::decode(bad).error().message,
            "not an object header (bad magic)");
}

TEST(ForwardRecord, EncodesItsDocumentedLayout) {
  migrate::ForwardRecord rec;
  rec.generation = 7;
  rec.new_header = ra::makeHomedSysname(51, 9001);
  rec.class_name = "counter";
  rec.moves = {{ra::makeHomedSysname(50, 11), ra::makeHomedSysname(51, 9002), ra::kPageSize}};
  const Wire wire = Wire()
                        .u32(0xC10DF06D)
                        .u8(1)
                        .u64(7)
                        .sysname(rec.new_header)
                        .str("counter")
                        .u32(1)
                        .sysname(rec.moves[0].from)
                        .sysname(rec.moves[0].to)
                        .u64(ra::kPageSize);
  expectLayout(rec, wire.bytes, "forward record");
  EXPECT_EQ(rec.encode(), wire.bytes);
  auto page = rec.encodePage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value(), Wire(wire).padTo(ra::kPageSize).bytes);
  // The refusals name what is wrong.
  Bytes version = wire.bytes;
  version[4] = std::byte{3};
  EXPECT_EQ(migrate::ForwardRecord::decode(version).error().message,
            "unknown forward record version 3");
  Bytes crowded = wire.bytes;
  crowded[4 + 1 + 8 + 16 + 4 + 7] = std::byte{9};  // the move count
  EXPECT_EQ(migrate::ForwardRecord::decode(crowded).error().message,
            "forward record claims 9 segment moves");
}

}  // namespace
}  // namespace clouds::test
