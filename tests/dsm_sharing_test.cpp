// Page images shared by reference (docs/STORAGE.md, docs/PROTOCOLS.md): a
// store, the log, cached replies and client frames hold one image, a write
// copies it first (copy-on-write), and every zero-filled frame shares one
// zero image. Also the scheduler's cache-residency sample over the frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "testbed.hpp"

namespace clouds::test {
namespace {

using ra::Access;
using ra::kPageSize;

bool allBytesAre(const std::byte* data, std::byte value) {
  return std::all_of(data, data + kPageSize, [value](std::byte b) { return b == value; });
}

TEST(DsmSharing, ZeroFillFaultsShareOneImageUntilAWrite) {
  Testbed f(1, 1);
  constexpr std::uint32_t kPages = 8;
  const Sysname seg = f.data[0].store->createSegment(kPages * kPageSize).value();
  dsm::DsmClientPartition& dsm = *f.compute[0].dsm;
  f.sim.spawn("steps", [&](sim::Process& self) {
    for (std::uint32_t p = 0; p < kPages; ++p) {
      ASSERT_TRUE(dsm.resolvePage(self, {seg, p}, Access::read).ok());
    }
    EXPECT_EQ(f.sim.metrics().counterValue("cpu0/dsm/read_faults"), kPages);
    // Every page is resident now: these are hits, and nothing blocks
    // between them, so every handle is still valid.
    std::vector<const std::byte*> addresses;
    for (std::uint32_t p = 0; p < kPages; ++p) {
      auto h = dsm.resolvePage(self, {seg, p}, Access::read);
      ASSERT_TRUE(h.ok());
      EXPECT_FALSE(h.value().writable());
      addresses.push_back(h.value().data());
    }
    EXPECT_EQ(std::count(addresses.begin(), addresses.end(), addresses.front()),
              static_cast<std::ptrdiff_t>(kPages));
    const std::byte* zero = addresses.front();
    ASSERT_TRUE(allBytesAre(zero, std::byte{0}));

    auto w = dsm.resolvePage(self, {seg, 3}, Access::write);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value().writable());
    EXPECT_NE(w.value().data(), zero);
    std::fill(w.value().mutableData(), w.value().mutableData() + kPageSize, std::byte{0x5a});

    for (std::uint32_t p = 0; p < kPages; ++p) {
      auto h = dsm.resolvePage(self, {seg, p}, Access::read);
      ASSERT_TRUE(h.ok());
      if (p == 3) {
        EXPECT_TRUE(allBytesAre(h.value().data(), std::byte{0x5a}));
      } else {
        EXPECT_EQ(h.value().data(), zero) << "page " << p;
        EXPECT_TRUE(allBytesAre(h.value().data(), std::byte{0})) << "page " << p;
      }
    }
  });
  f.sim.run();
}

// A testbed whose data server runs the wal engine, so that a prepared
// transaction's images sit in a log record.
struct WalBed : Testbed {
  WalBed() : Testbed(3, 0) {
    DataServer ds;
    ds.node = std::make_unique<ra::Node>(sim, cost, ether, 100, "data0",
                                         static_cast<int>(ra::NodeRole::data));
    ds.store = std::make_unique<store::DiskStore>(ds.node->id(), cost, 256,
                                                  store::StoreEngine::wal);
    ds.store->attachMetrics(sim.metrics(), ds.node->name());
    ds.server = std::make_unique<dsm::DsmServer>(*ds.node, *ds.store);
    data.push_back(std::move(ds));
  }
};

TEST(DsmSharing, AWriteCopiesTheImageAndEveryOtherHolderKeepsTheOldBytes) {
  // One image X is shared by the store (pages P and Q), node A's frame of P,
  // the log record of a prepared transaction over page R, and a RaTP reply
  // cached at the data server. Node B then writes through its frame of Q.
  WalBed f;
  store::DiskStore& store = *f.data[0].store;
  const net::NodeId home = f.data[0].node->id();
  const Sysname seg = store.createSegment(4 * kPageSize).value();
  const ra::PageKey P{seg, 0};
  const ra::PageKey Q{seg, 1};
  const ra::PageKey R{seg, 2};
  constexpr std::uint64_t kCommitted = (std::uint64_t{1} << 32) | 1;
  constexpr std::uint64_t kPrepared = (std::uint64_t{1} << 32) | 2;
  // The cached reply: a service on the data server answers with the store's
  // image of P, by reference.
  f.data[0].node->ratp().bindService(
      net::kPortEcho, [&](sim::Process& self, net::NodeId, const Message&) {
        Encoder e;
        e.image(store.readPage(self, P).value());
        return std::move(e).message();
      });
  const std::byte* x = nullptr;
  Bytes cached_reply;
  const std::byte* cached_reply_data = nullptr;
  bool reader_done = false;
  f.sim.spawn("steps", [&](sim::Process& self) {
    ASSERT_TRUE(store.writePage(self, P, Bytes(kPageSize, std::byte{0x11})).ok());
    const SharedBytes image = store.readPage(self, P).value();
    x = image.data();
    // Q becomes X through a committed transaction, R through a prepared one:
    // the images cross the wire from node A and arrive as the same buffer.
    dsm::DsmClientPartition& a_dsm = *f.compute[0].dsm;
    ASSERT_TRUE(a_dsm.prepare(self, home, kCommitted, {{Q, image}}).ok());
    ASSERT_TRUE(a_dsm.decide(self, home, kCommitted, /*commit=*/true).ok());
    ASSERT_TRUE(a_dsm.prepare(self, home, kPrepared, {{R, image}}).ok());
    EXPECT_EQ(store.readPage(self, Q).value().data(), x);

    // Node C asks for the image; its first reply fragment is lost, so its
    // retransmission, long after B's write, is answered from the cache.
    f.compute[2].node->nic().dropNextRx(1);
    f.sim.spawn("reader", [&](sim::Process& p) {
      net::RatpOptions patient;
      patient.timeout = sim::sec(2);
      auto reply = f.compute[2].node->ratp().transact(p, home, net::kPortEcho, Bytes{1}, patient);
      ASSERT_TRUE(reply.ok());
      Decoder d(reply.value());
      auto got = d.image();
      ASSERT_TRUE(got.ok());
      cached_reply_data = got.value().data();
      cached_reply = Bytes(got.value().data(), got.value().data() + got.value().size());
      reader_done = true;
    });
    self.delay(sim::msec(100));  // the reply is cached; C waits for its retransmit

    // A's frame of P holds the store's image.
    auto a_read = f.compute[0].dsm->resolvePage(self, P, Access::read);
    ASSERT_TRUE(a_read.ok());
    EXPECT_EQ(a_read.value().data(), x);

    // B's write fault on Q is granted X; the write copies it first.
    auto b_write = f.compute[1].dsm->resolvePage(self, Q, Access::write);
    ASSERT_TRUE(b_write.ok());
    ASSERT_NE(b_write.value().data(), x);
    EXPECT_TRUE(allBytesAre(b_write.value().data(), std::byte{0x11}));
    std::byte* b_page = b_write.value().mutableData();
    std::fill(b_page, b_page + kPageSize, std::byte{0x22});
    EXPECT_FALSE(reader_done);

    auto b_read = f.compute[1].dsm->resolvePage(self, Q, Access::read);
    ASSERT_TRUE(b_read.ok());
    EXPECT_TRUE(allBytesAre(b_read.value().data(), std::byte{0x22}));
    a_read = f.compute[0].dsm->resolvePage(self, P, Access::read);
    ASSERT_TRUE(a_read.ok());
    EXPECT_EQ(a_read.value().data(), x);
    EXPECT_TRUE(allBytesAre(a_read.value().data(), std::byte{0x11}));
    for (const ra::PageKey& key : {P, Q}) {
      const SharedBytes stored = store.readPage(self, key).value();
      EXPECT_EQ(stored.data(), x) << key.toString();
      EXPECT_TRUE(allBytesAre(stored.data(), std::byte{0x11})) << key.toString();
    }
    ASSERT_TRUE(a_dsm.decide(self, home, kPrepared, /*commit=*/true).ok());
    const SharedBytes committed = store.readPage(self, R).value();
    EXPECT_EQ(committed.data(), x);
    EXPECT_TRUE(allBytesAre(committed.data(), std::byte{0x11}));
  });
  f.sim.run();
  ASSERT_TRUE(reader_done);
  EXPECT_EQ(f.sim.metrics().counterValue("data0/ratp/reply_cache_hits"), 1u);
  EXPECT_EQ(cached_reply_data, x);
  EXPECT_EQ(cached_reply, Bytes(kPageSize, std::byte{0x11}));
}

TEST(DsmSharing, CachedSegmentsMatchABruteForceWalk) {
  // Node 0 caches pages of seven segments, then loses some of them: all of
  // segment 1's (dropped), pages 0 and 2 of segment 3 and every page of
  // segment 4 (node 1 writes them), and segment 6 is never read. The sample
  // must equal a walk of every frame, for every cap.
  Testbed f(2, 1);
  constexpr int kSegments = 7;
  constexpr std::uint32_t kPages = 4;
  std::vector<Sysname> segs;
  for (int i = 0; i < kSegments; ++i) {
    segs.push_back(f.data[0].store->createSegment(kPages * kPageSize).value());
  }
  std::map<ra::PageKey, bool> frames;  // node 0's frame table: key -> valid
  dsm::DsmClientPartition& dsm = *f.compute[0].dsm;
  f.sim.spawn("steps", [&](sim::Process& self) {
    for (int i = 0; i + 1 < kSegments; ++i) {
      for (std::uint32_t p = 0; p < kPages; ++p) {
        if ((i == 2 || i == 5) && p % 2 == 1) continue;  // sparse segments
        ASSERT_TRUE(dsm.resolvePage(self, {segs[static_cast<std::size_t>(i)], p},
                                    Access::read)
                        .ok());
        frames[{segs[static_cast<std::size_t>(i)], p}] = true;
      }
    }
    dsm.dropSegment(segs[1]);
    for (auto& [key, valid] : frames) valid = valid && key.segment != segs[1];
    auto writeFromNode1 = [&](const ra::PageKey& key) {
      ASSERT_TRUE(f.compute[1].dsm->resolvePage(self, key, Access::write).ok());
      frames[key] = false;
    };
    writeFromNode1({segs[3], 0});
    writeFromNode1({segs[3], 2});
    for (std::uint32_t p = 0; p < kPages; ++p) writeFromNode1({segs[4], p});
  });
  f.sim.run();
  EXPECT_EQ(f.sim.metrics().counterValue("cpu0/dsm/frames_invalidated"), 6u);
  for (std::size_t max = 0; max <= kSegments + 2; ++max) {
    std::vector<Sysname> expected;
    for (const auto& [key, valid] : frames) {
      if (!valid || (!expected.empty() && expected.back() == key.segment)) continue;
      if (expected.size() == max) break;
      expected.push_back(key.segment);
    }
    EXPECT_EQ(dsm.cachedSegments(max), expected) << "max " << max;
  }
  const std::vector<Sysname> all{segs[0], segs[2], segs[3], segs[5]};
  EXPECT_EQ(dsm.cachedSegments(kSegments), all);
}

}  // namespace
}  // namespace clouds::test
