// Every layout one node writes and another reads, pinned byte for byte
// against the tables in docs/PROTOCOLS.md, docs/SCHEDULING.md and
// docs/MIGRATION.md, written out by hand (tests/wire.hpp), and read back.
// DsmCodec.EveryOpEncodesItsDocumentedLayout (dsm_sync_test.cpp) pins the
// DSM requests. Frames (RaTP fragments, the comparators' messages) are
// pinned as a bare interface on the wire receives them.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "clouds/object.hpp"
#include "clouds/runtime.hpp"
#include "clouds/value.hpp"
#include "common/codec.hpp"
#include "dsm/protocol.hpp"
#include "migrate/protocol.hpp"
#include "net/comparators.hpp"
#include "net/ratp.hpp"
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

TEST(ValueCodec, AListOfEveryTagEncodesItsDocumentedLayout) {
  using obj::Value;
  const obj::ValueList values{
      Value{},
      Value{std::int64_t{-2}},
      Value{1.5},
      Value{true},
      Value{"hi"},
      Value{kImage},
      Value{obj::ValueList{Value{std::int64_t{7}}, Value{false}}},
  };
  const Bytes wire = Wire()
                         .u32(7)
                         .u8(0)
                         .u8(1)
                         .u64(static_cast<std::uint64_t>(-2))
                         .u8(2)
                         .f64(1.5)
                         .u8(3)
                         .u8(1)
                         .u8(4)
                         .str("hi")
                         .u8(5)
                         .image(kImage)
                         .u8(6)
                         .u32(2)
                         .u8(1)
                         .u64(7)
                         .u8(3)
                         .u8(0)
                         .bytes;
  EXPECT_EQ(Value::encodeList(values), wire);
  auto back = Value::decodeList(wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value(), values);
  EXPECT_EQ(Value::decodeList(Wire().u32(1).u8(7).bytes).error().message,
            "unknown value tag 7");
}

// Two interfaces on one wire: `peer` runs the protocol under test, and
// `tap` is a bare interface that keeps every frame it receives and may
// answer it with frames written from the tables.
struct TapBed {
  sim::Simulation sim{42};
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  sim::CpuResource peer_cpu{cost.context_switch};
  sim::CpuResource tap_cpu{cost.context_switch};
  net::Nic& peer{ether.attach(1, peer_cpu, "peer")};
  net::Nic& tap{ether.attach(2, tap_cpu, "tap")};
  std::vector<net::Frame> heard;

  using Answer = std::function<void(sim::Process&, const net::Frame&)>;
  void listen(net::ProtocolId protocol, Answer answer = {}) {
    tap.setHandler(protocol, [this, answer](sim::Process& self, net::Frame& frame) {
      heard.push_back(frame);
      if (answer) answer(self, frame);
    });
  }
  void send(sim::Process& self, net::ProtocolId protocol, const Wire& payload,
            Message body = {}) {
    tap.send(self, net::Frame{net::kNoNode, peer.address(), protocol, payload.bytes,
                              std::move(body)});
  }
};

Bytes counting(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(i * 13 + 1);
  return b;
}

Bytes slice(const Bytes& b, std::size_t off, std::size_t len) {
  return Bytes(b.begin() + static_cast<std::ptrdiff_t>(off),
               b.begin() + static_cast<std::ptrdiff_t>(off + len));
}

// A fragment is the header (type, txid, port, index, count, len) as the
// frame's payload and `len` bytes of the message as its body. The tap hears
// a two-fragment request from the endpoint, then sends a request written
// from the table and hears the endpoint's reply.
TEST(RatpCodec, FragmentHeadersAreTheDocumentedRows) {
  TapBed b;
  net::RatpEndpoint endpoint(b.peer, "peer");
  endpoint.bindService(net::kPortEcho, [](sim::Process&, net::NodeId, const Bytes& request) {
    Bytes reply = request;
    reply.push_back(std::byte{'!'});
    return reply;
  });
  b.listen(net::kProtoRatp);
  const std::size_t cap = b.cost.eth_mtu - 19;
  const Bytes big = counting(cap + 1);
  const std::uint64_t peer_txid = (std::uint64_t{1} << 32) | 1;  // node 1's first
  const std::uint64_t tap_txid = (std::uint64_t{2} << 32) | 77;
  const Bytes ping = toBytes("ping");
  b.sim.spawn("driver", [&](sim::Process& self) {
    auto unanswered = endpoint.transact(self, b.tap.address(), net::kPortEcho, big,
                                        {sim::msec(5), 0});
    EXPECT_EQ(unanswered.code(), Errc::timeout);
    b.send(self, net::kProtoRatp,
           Wire().u8(1).u64(tap_txid).u16(net::kPortEcho).u16(0).u16(1).u32(4), Message(ping));
  });
  b.sim.run();
  ASSERT_EQ(b.heard.size(), 3u);
  const Bytes rows[] = {
      Wire().u8(1).u64(peer_txid).u16(net::kPortEcho).u16(0).u16(2).u32(cap).bytes,
      Wire().u8(1).u64(peer_txid).u16(net::kPortEcho).u16(1).u16(2).u32(1).bytes,
      Wire().u8(2).u64(tap_txid).u16(net::kPortEcho).u16(0).u16(1).u32(5).bytes,
  };
  const Bytes bodies[] = {slice(big, 0, cap), slice(big, cap, 1), toBytes("ping!")};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(b.heard[i].payload, rows[i]) << "fragment " << i;
    EXPECT_EQ(b.heard[i].payload.size(), 19u) << "fragment " << i;
    EXPECT_EQ(b.heard[i].body.flatten(), bodies[i]) << "fragment " << i;
  }
}

// The tap serves the peer's read with a read_data row, then sends a
// read_req row and hears the peer's two-frame reply: the data is cut at the
// MTU less the 13-byte header.
TEST(ComparatorCodec, NfsFramesAreTheDocumentedRows) {
  TapBed b;
  net::NfsSim nfs(b.peer, "peer");
  const std::uint64_t file = 0x0102030405060708;
  nfs.serveFiles([&](std::uint64_t f, std::uint64_t offset, std::uint32_t length) {
    EXPECT_EQ(f, file);
    return slice(counting(offset + length), offset, length);
  });
  b.listen(net::kProtoUnixUdp, [&](sim::Process& self, const net::Frame& frame) {
    if (frame.payload.at(0) == std::byte{1}) {
      b.send(self, net::kProtoUnixUdp, Wire().u8(2).u32(1).u16(0).u16(1).image(kImage));
    }
  });
  const std::size_t cap = b.cost.eth_mtu - 13;
  Bytes got;
  b.sim.spawn("driver", [&](sim::Process& self) {
    auto read = nfs.read(self, b.tap.address(), file, 0x1112131415161718, 3);
    ASSERT_TRUE(read.ok());
    got = read.value();
    b.send(self, net::kProtoUnixUdp,
           Wire().u8(1).u32(9).u64(file).u64(16).u32(static_cast<std::uint32_t>(cap + 1)));
  });
  b.sim.run();
  EXPECT_EQ(got, kImage);
  const Bytes data = slice(counting(16 + cap + 1), 16, cap + 1);
  const Bytes rows[] = {
      Wire().u8(1).u32(1).u64(file).u64(0x1112131415161718).u32(3).bytes,
      Wire().u8(2).u32(9).u16(0).u16(2).image(slice(data, 0, cap)).bytes,
      Wire().u8(2).u32(9).u16(1).u16(2).image(slice(data, cap, 1)).bytes,
  };
  ASSERT_EQ(b.heard.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(b.heard[i].payload, rows[i]) << "frame " << i;
    EXPECT_TRUE(b.heard[i].body.empty()) << "frame " << i;
  }
  EXPECT_EQ(b.heard[1].payload.size(), b.cost.eth_mtu);
}

// The tap plays the server to the peer's retrieval (conn 1), answering each
// message with a row; then the client to the peer's server (conn 40). It
// hears each of the six messages once.
TEST(ComparatorCodec, FtpFramesAreTheDocumentedRows) {
  TapBed b;
  net::FtpSim ftp(b.peer, "peer");
  ftp.serveFiles([](std::uint64_t file, std::uint64_t offset, std::uint32_t length) {
    EXPECT_EQ(file, 5u);
    EXPECT_EQ(offset, 0u);
    return counting(length);
  });
  b.listen(net::kProtoUnixTcp, [&](sim::Process& self, const net::Frame& frame) {
    switch (static_cast<std::uint8_t>(frame.payload.at(0))) {
      case 1:  // syn, from the peer's client
        b.send(self, net::kProtoUnixTcp, Wire().u8(2).u32(1));
        break;
      case 3:  // get
        b.send(self, net::kProtoUnixTcp, Wire().u8(4).u32(1).u16(0).u16(1).image(kImage));
        break;
      case 5:  // ack
        b.send(self, net::kProtoUnixTcp, Wire().u8(6).u32(1));
        break;
      case 2:  // synack, from the peer's server
        b.send(self, net::kProtoUnixTcp, Wire().u8(3).u32(40).u64(5).u32(4));
        break;
      case 4:  // data
        b.send(self, net::kProtoUnixTcp, Wire().u8(5).u32(40));
        break;
      default:
        break;
    }
  });
  Bytes got;
  b.sim.spawn("driver", [&](sim::Process& self) {
    auto r = ftp.retrieve(self, b.tap.address(), 5, 3);
    ASSERT_TRUE(r.ok());
    got = r.value();
    b.send(self, net::kProtoUnixTcp, Wire().u8(1).u32(40));
  });
  b.sim.run();
  EXPECT_EQ(got, kImage);
  const Bytes rows[] = {
      Wire().u8(1).u32(1).bytes,                               // syn
      Wire().u8(3).u32(1).u64(5).u32(3).bytes,                 // get
      Wire().u8(5).u32(1).bytes,                               // ack
      Wire().u8(2).u32(40).bytes,                              // synack
      Wire().u8(4).u32(40).u16(0).u16(1).image(counting(4)).bytes,  // data
      Wire().u8(6).u32(40).bytes,                              // fin
  };
  ASSERT_EQ(b.heard.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(b.heard[i].payload, rows[i]) << "frame " << i;
    EXPECT_TRUE(b.heard[i].body.empty()) << "frame " << i;
  }
}

// The header sizes the fragmenting code cuts by are those of the headers
// the field lists encode.
TEST(RatpCodec, HeaderSizesAreTheEncodedSizes) {
  EXPECT_EQ(codec::encode(net::FragmentHeader{}).size(), net::kFragHeader);
  EXPECT_EQ(net::kFragHeader, 19u);
  EXPECT_EQ(codec::encode(net::NfsFrame{.type = net::NfsMsg::read_data}).size(), net::kUdpHeader);
  EXPECT_EQ(net::kUdpHeader, 13u);
}

}  // namespace
}  // namespace clouds::test
