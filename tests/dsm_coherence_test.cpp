// One-copy semantics of the DSM layer (paper §3.2): "care must be taken to
// ensure that at all times A and B see the exact same contents of O".
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace clouds::test {
namespace {

using dsm::LockMode;
using ra::Access;
using ra::kPageSize;
using ra::PageKey;

struct DsmFixture : Testbed {
  Sysname seg;
  explicit DsmFixture(int n_compute = 2, int n_data = 1, std::uint64_t seed = 42,
                      std::size_t frame_capacity = 2048)
      : Testbed(n_compute, n_data, seed, frame_capacity) {
    seg = data[0].store->createSegment(4 * kPageSize).value();
  }

  // Read/write helpers through the partition (whole-value, within page 0).
  std::uint64_t readAt(sim::Process& self, int node, std::uint32_t page, std::size_t off) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::read);
    EXPECT_TRUE(h.ok());
    std::uint64_t v = 0;
    std::memcpy(&v, h.value().data() + off, sizeof(v));
    return v;
  }
  void writeAt(sim::Process& self, int node, std::uint32_t page, std::size_t off,
               std::uint64_t v) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::write);
    ASSERT_TRUE(h.ok());
    std::memcpy(h.value().mutableData() + off, &v, sizeof(v));
  }
};

TEST(Dsm, RemoteReadSeesStoreContents) {
  DsmFixture f;
  Bytes page(kPageSize, std::byte{0x5c});
  f.sim.spawn("init", [&](sim::Process& self) {
    ASSERT_TRUE(f.data[0].store->writePage(self, {f.seg, 0}, page).ok());
    auto h = f.compute[0].dsm->resolvePage(self, {f.seg, 0}, Access::read);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.value().data()[123], std::byte{0x5c});
    EXPECT_FALSE(h.value().writable());
  });
  f.sim.run();
}

TEST(Dsm, WriteOnOneNodeVisibleOnAnother) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 64, 0xfeedfacecafebeefULL);
    EXPECT_EQ(f.readAt(self, 1, 0, 64), 0xfeedfacecafebeefULL);
  });
  f.sim.run();
}

TEST(Dsm, WriteInvalidatesOtherReaders) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 1);            // node0 exclusive
    EXPECT_EQ(f.readAt(self, 1, 0, 0), 1u);  // node1 shared (degrades node0)
    f.writeAt(self, 0, 0, 0, 2);            // invalidates node1's copy
    EXPECT_EQ(f.readAt(self, 1, 0, 0), 2u);  // node1 refetches: sees 2
    f.writeAt(self, 1, 0, 0, 3);            // ownership migrates
    EXPECT_EQ(f.readAt(self, 0, 0, 0), 3u);
  });
  f.sim.run();
}

TEST(Dsm, ReadAfterWriteIsCacheHitNoTraffic) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 7);
    const auto faults = f.compute[0].dsm->faultCount();
    const auto frames_sent = f.sim.metrics().counterValue("cpu0/eth/frames_sent");
    for (int i = 0; i < 100; ++i) EXPECT_EQ(f.readAt(self, 0, 0, 0), 7u);
    EXPECT_EQ(f.compute[0].dsm->faultCount(), faults);  // pure hits
    EXPECT_EQ(f.sim.metrics().counterValue("cpu0/eth/frames_sent"), frames_sent);
  });
  f.sim.run();
}

TEST(Dsm, SharedReadersCoexistWithoutInvalidation) {
  DsmFixture f(3, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 5);
    for (int n = 0; n < 3; ++n) EXPECT_EQ(f.readAt(self, n, 0, 0), 5u);
    const auto inv = f.sim.metrics().counterValue("data0/dsm/invalidations");
    for (int n = 0; n < 3; ++n) EXPECT_EQ(f.readAt(self, n, 0, 0), 5u);
    EXPECT_EQ(f.sim.metrics().counterValue("data0/dsm/invalidations"), inv);
  });
  f.sim.run();
}

TEST(Dsm, ZeroFillFaultCostsMatchPaper) {
  // Paper §4.3: 1.5 ms for a zero-filled 8K page; 0.629 ms for a non
  // zero-filled (resident) page.
  DsmFixture f(1, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    // Zero-fill: page never written; grant carries no data.
    auto t0 = f.sim.now();
    (void)f.readAt(self, 0, 0, 0);
    const double zf_ms = sim::toMillis(f.sim.now() - t0);
    // The fault includes the network transaction; the local CPU part is
    // trap + zero-fill = 1.5 ms, so total must exceed it but the data
    // transfer must be absent (grant is header-only: 1 fragment each way).
    EXPECT_GT(zf_ms, 1.5);
    EXPECT_LT(zf_ms, 8.0);  // no 6-fragment page payload

    // Non-zero-filled: write it (via store) and fault it elsewhere fresh.
    Bytes page(kPageSize, std::byte{1});
    ASSERT_TRUE(f.data[0].store->writePage(self, {f.seg, 1}, page).ok());
    t0 = f.sim.now();
    (void)f.readAt(self, 0, 1, 0);
    const double data_ms = sim::toMillis(f.sim.now() - t0);
    EXPECT_GT(data_ms, zf_ms);  // carries 8 KiB over the wire
  });
  f.sim.run();
}

TEST(Dsm, ConcurrentFaultsOnSamePageJoinOneFetch) {
  DsmFixture f(1, 1);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    f.sim.spawn("reader" + std::to_string(i), [&](sim::Process& self) {
      (void)f.readAt(self, 0, 0, 0);
      ++done;
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 4);
  // One fault fetched the page; the rest joined it.
  EXPECT_EQ(f.compute[0].dsm->faultCount(), 1u);
  EXPECT_EQ(f.sim.metrics().counterValue("cpu0/dsm/hits"), 4u);
}

TEST(Dsm, EvictionWritesBackDirtyData) {
  // Frame capacity 2: touching 3 pages evicts the dirty first page, which
  // must reach the store and remain readable.
  DsmFixture f(2, 1, 42, /*frame_capacity=*/2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 8, 0x1111);
    f.writeAt(self, 0, 1, 8, 0x2222);
    f.writeAt(self, 0, 2, 8, 0x3333);  // evicts page 0
    EXPECT_LE(f.compute[0].dsm->residentFrames(), 2u);
    EXPECT_EQ(f.readAt(self, 1, 0, 8), 0x1111u);  // from the store, via DSM
  });
  f.sim.run();
}

TEST(Dsm, FlushSegmentPersistsDirtyPages) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 16, 0xabcd);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    Bytes buf(kPageSize);
    ASSERT_TRUE(readPageInto(*f.data[0].store, self, {f.seg, 0}, buf).ok());
    std::uint64_t v = 0;
    std::memcpy(&v, buf.data() + 16, sizeof(v));
    EXPECT_EQ(v, 0xabcdu);
  });
  f.sim.run();
}

TEST(Dsm, DropSegmentDiscardsDirtyData) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 16, 0x1234);
    f.compute[0].dsm->dropSegment(f.seg);  // abort path: discard, no write-back
    EXPECT_EQ(f.readAt(self, 1, 0, 16), 0u);  // store never saw the write
  });
  f.sim.run();
}

TEST(Dsm, CrashedHolderLosesDirtyData) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.writeAt(self, 0, 0, 0, 42);   // dirty exclusive at node0
    f.compute[0].node->crash();     // dies with the only copy
    // Node1 still gets an answer: the store's last durable version (0).
    EXPECT_EQ(f.readAt(self, 1, 0, 0), 0u);
  });
  f.sim.run();
}

// cpu0 and cpu1 share a page; cpu0 dies unannounced; cpu2's write makes
// the data server call both back, and cpu0's callback runs out its retry
// budget. A crash notice for cpu0 that lands inside that callback erases
// cpu0 from the copyset the grant is walking: cpu1 is still invalidated
// exactly once, and the write is granted when it is without the notice.
TEST(Dsm, CrashNoticeDuringASharerCallbackInvalidatesEachOtherSharerOnce) {
  struct Outcome {
    std::uint64_t invalidations = 0;
    std::uint64_t cpu1_invalidated = 0;
    sim::TimePoint granted{};
  };
  auto run = [](bool notice) {
    DsmFixture f(3, 1);
    Outcome out;
    f.sim.spawn("driver", [&](sim::Process& self) {
      EXPECT_EQ(f.readAt(self, 0, 0, 0), 0u);
      EXPECT_EQ(f.readAt(self, 1, 0, 0), 0u);
      f.compute[0].node->crash();
      if (notice) {
        f.sim.spawn("notice", [&](sim::Process& p) {
          p.delay(sim::msec(200));
          f.notifyClientCrash(f.compute[0].node->id());
        });
      }
      f.writeAt(self, 2, 0, 0, 7);
      out.granted = f.sim.now();
    });
    f.sim.run();
    out.invalidations = f.sim.metrics().counterValue("data0/dsm/invalidations");
    out.cpu1_invalidated = f.sim.metrics().counterValue("cpu1/dsm/frames_invalidated");
    return out;
  };
  const Outcome quiet = run(false);
  const Outcome noticed = run(true);
  EXPECT_EQ(noticed.invalidations, 2u);
  EXPECT_EQ(noticed.cpu1_invalidated, 1u);
  EXPECT_EQ(noticed.granted, quiet.granted);
  EXPECT_GT(noticed.granted, sim::msec(200));  // the notice landed before the grant
}

TEST(Dsm, UnknownSegmentFaultFails) {
  DsmFixture f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    auto h = f.compute[0].dsm->resolvePage(self, {ra::makeHomedSysname(100, 999), 0},
                                           Access::read);
    EXPECT_EQ(h.code(), Errc::not_found);
  });
  f.sim.run();
}

TEST(Dsm, StatRoutesToHomeServer) {
  DsmFixture f(1, 2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    auto other = f.compute[0].dsm->createSegment(self, f.data[1].node->id(), 2 * kPageSize);
    ASSERT_TRUE(other.ok());
    auto info = f.compute[0].dsm->stat(self, other.value());
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().length, 2 * kPageSize);
    EXPECT_EQ(ra::sysnameHome(other.value()), f.data[1].node->id());
  });
  f.sim.run();
}

// Paper §3: a machine with a disk "can simultaneously be a compute and data
// server", and answers its own DSM requests without the network. One such
// combined node, bare as in the E1 calibration, plus a diskless client
// sharing its wire.
struct CombinedPair {
  sim::Simulation sim{42};
  sim::CostModel cost;
  net::Ethernet ether{sim, cost};
  ra::Node combo{sim, cost, ether, 1, "combo", ra::NodeRole::compute | ra::NodeRole::data};
  store::DiskStore store{1, cost};
  dsm::DsmServer server{combo, store};
  dsm::DsmClientPartition combo_dsm{combo, &server};
  ra::Node cpu{sim, cost, ether, 2, "cpu", static_cast<int>(ra::NodeRole::compute)};
  dsm::DsmClientPartition cpu_dsm{cpu, nullptr};

  std::uint64_t counter(const std::string& name) const {
    return sim.metrics().counterValue(name);
  }
};

TEST(DsmCombined, LocalRequestsCostTheCalibratedFaultsAndStayOffTheWire) {
  CombinedPair m;
  constexpr ra::PageIndex kFaults = 16;
  m.sim.spawn("toucher", [&](sim::Process& self) {
    // Created through the DSM client, so the CPU is warm for the faults.
    auto created = m.combo_dsm.createSegment(self, m.combo.id(), 2 * kFaults * kPageSize);
    ASSERT_TRUE(created.ok());
    const Sysname seg = created.value();
    ASSERT_TRUE(m.combo_dsm.stat(self, seg).ok());
    // Paper §4.3: 1.5 ms for a zero-filled 8K page ...
    for (ra::PageIndex p = 0; p < kFaults; ++p) {
      const sim::TimePoint t0 = m.sim.now();
      ASSERT_TRUE(m.combo_dsm.resolvePage(self, {seg, p}, Access::read).ok());
      EXPECT_EQ((m.sim.now() - t0).count(), 1'500'000) << "zero-fill fault on page " << p;
    }
    // ... and 0.629 ms for a non zero-filled page resident at the server.
    const Bytes page(kPageSize, std::byte{1});
    for (ra::PageIndex p = kFaults; p < 2 * kFaults; ++p) {
      ASSERT_TRUE(m.store.writePage(self, {seg, p}, page).ok());
    }
    for (ra::PageIndex p = kFaults; p < 2 * kFaults; ++p) {
      const sim::TimePoint t0 = m.sim.now();
      ASSERT_TRUE(m.combo_dsm.resolvePage(self, {seg, p}, Access::read).ok());
      EXPECT_EQ((m.sim.now() - t0).count(), 629'000) << "resident fault on page " << p;
    }
    auto h = m.combo_dsm.resolvePage(self, {seg, 0}, Access::write);
    ASSERT_TRUE(h.ok());
    h.value().mutableData()[0] = std::byte{7};
    ASSERT_TRUE(m.combo_dsm.flushSegment(self, seg).ok());
    EXPECT_EQ(m.counter("net/eth/frames_on_wire"), 0u);

    // Locks and 2PC to the co-located server take the same local call: an
    // exclusive lock, a one-page prepare, the commit and the unlock start
    // no transaction, and the committed byte is in the store.
    const std::uint64_t tx = (std::uint64_t{1} << 32) | 1;
    ASSERT_TRUE(m.combo_dsm.lock(self, seg, LockMode::exclusive, tx).ok());
    Bytes committed(kPageSize, std::byte{0});
    committed[0] = std::byte{9};
    ASSERT_TRUE(m.combo_dsm.prepare(self, m.combo.id(), tx, {{{seg, 1}, committed}}).ok());
    ASSERT_TRUE(m.combo_dsm.decide(self, m.combo.id(), tx, /*commit=*/true).ok());
    ASSERT_TRUE(m.combo_dsm.unlockAll(self, m.combo.id(), tx).ok());
    Bytes stored(kPageSize);
    ASSERT_TRUE(readPageInto(m.store, self, {seg, 1}, stored).ok());
    EXPECT_EQ(stored[0], std::byte{9});
    EXPECT_EQ(m.counter("combo/ratp/transactions"), 0u);
    EXPECT_EQ(m.counter("net/eth/frames_on_wire"), 0u);

    // The diskless client's write invalidates the combined node's copy of
    // page 0 by a local callback: the combined node starts no transaction.
    auto w = m.cpu_dsm.resolvePage(self, {seg, 0}, Access::write);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value().data()[0], std::byte{7});
    EXPECT_EQ(m.counter("combo/dsm/invalidations"), 1u);
    EXPECT_EQ(m.counter("combo/ratp/transactions"), 0u);

    // The diskless node's lock on the same segment is one RaTP transaction.
    const std::uint64_t before = m.counter("cpu/ratp/transactions");
    const std::uint64_t cpu_tx = (std::uint64_t{2} << 32) | 1;
    ASSERT_TRUE(m.cpu_dsm.lock(self, seg, LockMode::exclusive, cpu_tx).ok());
    EXPECT_EQ(m.counter("cpu/ratp/transactions"), before + 1);
  });
  m.sim.run();
}

TEST(Dsm, MmuReadWriteAcrossPages) {
  DsmFixture f(1, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    ra::VirtualSpace space;
    ASSERT_TRUE(space.map({0x1000000, 4 * kPageSize, f.seg, 0, true}).ok());
    // A write spanning a page boundary.
    Bytes blob(300);
    for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i);
    const ra::VAddr addr = 0x1000000 + kPageSize - 100;
    ASSERT_TRUE(f.compute[0].mmu->write(self, space, addr, blob).ok());
    Bytes back(300);
    ASSERT_TRUE(f.compute[0].mmu->read(self, space, addr, back).ok());
    EXPECT_EQ(back, blob);
    // Typed accessors.
    ASSERT_TRUE(f.compute[0].mmu->store<std::uint32_t>(self, space, 0x1000000 + 8, 0xdead).ok());
    EXPECT_EQ(f.compute[0].mmu->load<std::uint32_t>(self, space, 0x1000000 + 8).value(), 0xdeadu);
    // Unmapped access faults with protection.
    Bytes one(1);
    EXPECT_EQ(f.compute[0].mmu->read(self, space, 0x9000000, one).code(), Errc::protection);
  });
  f.sim.run();
}

// Sequential-consistency smoke: one writer bumps a counter; concurrent
// readers on other nodes must never observe it moving backwards.
class DsmMonotonicSweep : public ::testing::TestWithParam<int> {};

TEST_P(DsmMonotonicSweep, CounterNeverMovesBackwards) {
  const int n_readers = GetParam();
  DsmFixture f(1 + n_readers, 1, 1234);
  bool stop = false;
  f.sim.spawn("writer", [&](sim::Process& self) {
    for (std::uint64_t v = 1; v <= 40; ++v) {
      f.writeAt(self, 0, 0, 0, v);
      self.delay(sim::msec(3));
    }
    stop = true;
  });
  for (int r = 0; r < n_readers; ++r) {
    f.sim.spawn("reader" + std::to_string(r), [&, r](sim::Process& self) {
      std::uint64_t last = 0;
      while (!stop) {
        const std::uint64_t v = f.readAt(self, 1 + r, 0, 0);
        EXPECT_GE(v, last) << "reader " << r << " saw time go backwards";
        last = v;
        self.delay(sim::msec(1 + r));
      }
      EXPECT_GT(last, 0u);
    });
  }
  f.sim.run();
}

INSTANTIATE_TEST_SUITE_P(Readers, DsmMonotonicSweep, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace clouds::test
