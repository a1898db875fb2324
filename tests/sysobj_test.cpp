// System objects: name server and user I/O manager (paper §4.2), plus the
// anonymous-segment partition backing volatile memory.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/codec.hpp"
#include "ra/anon_partition.hpp"
#include "sysobj/name_server.hpp"
#include "sysobj/user_io.hpp"
#include "testbed.hpp"

namespace clouds::test {
namespace {

struct SysobjBed : Testbed {
  sysobj::NameServer names;
  std::unique_ptr<ra::Node> ws_node;
  std::unique_ptr<sysobj::Workstation> ws;

  SysobjBed() : Testbed(2, 1), names(*data[0].node) {
    ws_node = std::make_unique<ra::Node>(sim, cost, ether, 200, "ws0",
                                         static_cast<int>(ra::NodeRole::workstation));
    ws = std::make_unique<sysobj::Workstation>(*ws_node);
  }
};

TEST(NameServer, BindLookupUnbindOverNetwork) {
  SysobjBed f;
  sysobj::NameClient client(*f.compute[0].node, f.data[0].node->id());
  const Sysname a = ra::makeHomedSysname(100, 1);
  const Sysname b = ra::makeHomedSysname(100, 2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    ASSERT_TRUE(client.bind(self, "alpha", {a}).ok());
    EXPECT_EQ(client.bind(self, "alpha", {b}).code(), Errc::already_exists);
    ASSERT_TRUE(client.bind(self, "alpha", {b}, /*replace=*/true).ok());
    auto got = client.lookup(self, "alpha");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().sysnames.front(), b);
    EXPECT_FALSE(got.value().isReplicated());
    // Replica sets round-trip too.
    ASSERT_TRUE(client.bind(self, "replicated", {a, b}).ok());
    auto rep = client.lookup(self, "replicated");
    ASSERT_TRUE(rep.ok());
    EXPECT_TRUE(rep.value().isReplicated());
    ASSERT_EQ(rep.value().sysnames.size(), 2u);
    // Listing and unbinding.
    auto all = client.list(self);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all.value().size(), 2u);
    ASSERT_TRUE(client.unbind(self, "alpha").ok());
    EXPECT_EQ(client.lookup(self, "alpha").code(), Errc::not_found);
    EXPECT_EQ(client.unbind(self, "alpha").code(), Errc::not_found);
  });
  f.sim.run();
}

TEST(NameServer, RejectsEmptyBindings) {
  SysobjBed f;
  EXPECT_EQ(f.names.bind("", {{Sysname(1, 1)}}).code(), Errc::bad_argument);
  EXPECT_EQ(f.names.bind("x", sysobj::Binding{}).code(), Errc::bad_argument);
}

TEST(NameServer, DirectFailurePaths) {
  SysobjBed f;
  const Sysname a = ra::makeHomedSysname(100, 1);
  const Sysname b = ra::makeHomedSysname(100, 2);
  // Unbinding a name that was never bound is not_found, not a crash.
  EXPECT_EQ(f.names.unbind("ghost").code(), Errc::not_found);
  // Rebinding without replace refuses and leaves the original intact.
  ASSERT_TRUE(f.names.bind("x", {{a}}).ok());
  EXPECT_EQ(f.names.bind("x", {{b}}).code(), Errc::already_exists);
  auto got = f.names.lookup("x");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().sysnames.front(), a);
}

TEST(NameServer, SaveLoadRoundTripPreservesReplicaSets) {
  const std::string path = ::testing::TempDir() + "clouds_names_roundtrip.bin";
  const Sysname a = ra::makeHomedSysname(100, 1);
  const Sysname b = ra::makeHomedSysname(101, 2);
  const Sysname c = ra::makeHomedSysname(102, 3);
  {
    SysobjBed f;
    ASSERT_TRUE(f.names.bind("solo", {{a}}).ok());
    ASSERT_TRUE(f.names.bind("replicated", {{a, b, c}}).ok());
    ASSERT_TRUE(f.names.saveTo(path).ok());
  }
  // A fresh name server (fresh simulation, fresh node) resumes the map,
  // including replica-set order.
  SysobjBed g;
  ASSERT_TRUE(g.names.loadFrom(path).ok());
  auto solo = g.names.lookup("solo");
  ASSERT_TRUE(solo.ok());
  EXPECT_FALSE(solo.value().isReplicated());
  EXPECT_EQ(solo.value().sysnames.front(), a);
  auto rep = g.names.lookup("replicated");
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.value().isReplicated());
  ASSERT_EQ(rep.value().sysnames.size(), 3u);
  EXPECT_EQ(rep.value().sysnames[0], a);
  EXPECT_EQ(rep.value().sysnames[1], b);
  EXPECT_EQ(rep.value().sysnames[2], c);
  EXPECT_EQ(g.names.list().size(), 2u);
}

TEST(NameServer, LoadFromMissingFileFails) {
  SysobjBed f;
  EXPECT_FALSE(f.names.loadFrom("/nonexistent/dir/clouds_names.bin").ok());
}

TEST(NameServer, LoadRefusesTheBindingsOnlyFormat) {
  // The layout before forwards (magic 0xC10D7A3E) is refused, and the
  // bindings already held stay as they were.
  const std::string path = ::testing::TempDir() + "clouds_names_bindings_only.bin";
  Encoder e;
  e.u32(0xC10D7A3Eu);
  e.u32(1);  // bindings
  e.str("old");
  e.u32(1);  // replicas
  e.sysname(ra::makeHomedSysname(100, 1));
  const Bytes file = std::move(e).take();
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(file.data(), 1, file.size(), out), file.size());
  std::fclose(out);

  SysobjBed f;
  ASSERT_TRUE(f.names.bind("kept", {{ra::makeHomedSysname(100, 2)}}).ok());
  EXPECT_EQ(f.names.loadFrom(path).code(), Errc::io);
  EXPECT_TRUE(f.names.lookup("kept").ok());
  EXPECT_FALSE(f.names.lookup("old").ok());
  std::remove(path.c_str());
}

TEST(UserIo, WritesRouteToWindowAndReadsConsumeInput) {
  SysobjBed f;
  sysobj::IoClient io(*f.compute[0].node);
  f.ws->supplyInput(3, "typed line");
  f.sim.spawn("thread", [&](sim::Process& self) {
    ASSERT_TRUE(io.write(self, 200, 3, "hello window 3").ok());
    ASSERT_TRUE(io.write(self, 200, 4, "hello window 4").ok());
    auto line = io.readLine(self, 200, 3);
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(line.value(), "typed line");
    // Empty input fails fast (deterministic terminals).
    EXPECT_EQ(io.readLine(self, 200, 3).code(), Errc::not_found);
  });
  f.sim.run();
  EXPECT_EQ(f.ws->joinedOutput(3), "hello window 3");
  EXPECT_EQ(f.ws->joinedOutput(4), "hello window 4");
}

TEST(UserIo, DeadWorkstationTimesOut) {
  SysobjBed f;
  sysobj::IoClient io(*f.compute[0].node);
  f.ws_node->crash();
  Errc code = Errc::ok;
  f.sim.spawn("thread", [&](sim::Process& self) {
    code = io.write(self, 200, 0, "into the void").code();
  });
  f.sim.run();
  EXPECT_EQ(code, Errc::timeout);
}

TEST(AnonPartition, ZeroFilledCreateAccessDestroy) {
  Testbed f(1, 1);
  ra::AnonPartition anon(f.compute[0].node->id(), f.compute[0].node->cpu(), f.cost);
  f.sim.spawn("driver", [&](sim::Process& self) {
    const Sysname seg = anon.create(3 * ra::kPageSize);
    EXPECT_TRUE(ra::isAnonName(seg));
    EXPECT_TRUE(anon.serves(seg));
    auto h = anon.resolvePage(self, {seg, 0}, ra::Access::write);
    ASSERT_TRUE(h.ok());
    h.value().data[5] = std::byte{0xaa};
    auto h2 = anon.resolvePage(self, {seg, 0}, ra::Access::read);
    EXPECT_EQ(h2.value().data[5], std::byte{0xaa});  // same frame
    EXPECT_EQ(anon.resolvePage(self, {seg, 5}, ra::Access::read).code(), Errc::protection);
    anon.destroy(seg);
    EXPECT_EQ(anon.resolvePage(self, {seg, 0}, ra::Access::read).code(), Errc::not_found);
    EXPECT_EQ(anon.stat(self, seg).code(), Errc::not_found);
  });
  f.sim.run();
}

}  // namespace
}  // namespace clouds::test
