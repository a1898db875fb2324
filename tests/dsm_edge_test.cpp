// DSM edge cases: stale grants under network mischief, server crash during
// faults, directory healing, write-back races, multi-server segments.
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace clouds::test {
namespace {

using ra::Access;
using ra::kPageSize;

struct EdgeBed : Testbed {
  Sysname seg;
  explicit EdgeBed(int n_compute = 2, int n_data = 1, std::uint64_t seed = 42,
                   std::size_t frames = 2048)
      : Testbed(n_compute, n_data, seed, frames) {
    seg = data[0].store->createSegment(8 * kPageSize).value();
  }
  std::uint64_t read64(sim::Process& self, int node, std::uint32_t page) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::read);
    EXPECT_TRUE(h.ok());
    std::uint64_t v = 0;
    if (h.ok()) std::memcpy(&v, h.value().data(), 8);
    return v;
  }
  void write64(sim::Process& self, int node, std::uint32_t page, std::uint64_t v) {
    auto h = compute[static_cast<std::size_t>(node)].dsm->resolvePage(self, {seg, page},
                                                                      Access::write);
    ASSERT_TRUE(h.ok());
    std::memcpy(h.value().mutableData(), &v, 8);
  }
};

TEST(DsmEdge, CoherenceSurvivesRandomFrameLoss) {
  // Retransmission + versioned grants must keep one-copy semantics intact
  // under 20% loss: the writer/reader ping-pong below never observes a
  // stale value.
  EdgeBed f(2, 1, 77);
  f.cost.dsm_callback_retries = 8;  // lossy wire, but nobody actually died
  f.ether.setDropRate(0.2);
  f.sim.spawn("driver", [&](sim::Process& self) {
    for (std::uint64_t i = 1; i <= 25; ++i) {
      const int writer = static_cast<int>(i % 2);
      f.write64(self, writer, 0, i);
      EXPECT_EQ(f.read64(self, 1 - writer, 0), i) << "round " << i;
    }
  });
  f.sim.run();
  EXPECT_GT(f.sim.metrics().counterValue("cpu0/ratp/retransmits") +
                f.sim.metrics().counterValue("cpu1/ratp/retransmits"),
            0u);
}

TEST(DsmEdge, FaultDuringDataServerCrashFailsThenRecovers) {
  EdgeBed f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 7);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    f.data[0].node->crash();
    f.compute[1].dsm->dropSegment(f.seg);
    auto h = f.compute[1].dsm->resolvePage(self, {f.seg, 0}, Access::read);
    EXPECT_FALSE(h.ok());  // server unreachable
    f.data[0].node->restart();
    // Directory was volatile and is gone; faults rebuild it from the store.
    f.compute[0].dsm->loseVolatileState();
    EXPECT_EQ(f.read64(self, 1, 0), 7u);
    EXPECT_EQ(f.read64(self, 0, 0), 7u);
  });
  f.sim.run();
}

TEST(DsmEdge, ServerCrashPurgeDropsUnreachableGrants) {
  // A data server reboot loses the volatile directory: without a crash-time
  // purge, a surviving client's cached shared copy can never be invalidated
  // again (the reborn directory has no copyset for it) and is read stale
  // forever. purgeHomedOn is what Cluster::notifyServerCrash runs on every
  // surviving client when a data server dies.
  EdgeBed f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 7);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    EXPECT_EQ(f.read64(self, 1, 0), 7u);  // node 1 now caches a shared copy
    f.data[0].node->crash();
    f.data[0].node->restart();
    EXPECT_GE(f.compute[0].dsm->purgeHomedOn(f.data[0].node->id()), 1u);
    EXPECT_GE(f.compute[1].dsm->purgeHomedOn(f.data[0].node->id()), 1u);
    // The purge also reset the version horizon, so the reborn directory's
    // small grant numbers are not mistaken for stale grants.
    f.write64(self, 0, 0, 9);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
    EXPECT_EQ(f.read64(self, 1, 0), 9u);  // the stale copy was dropped
  });
  f.sim.run();
}

TEST(DsmEdge, DirectoryHealsAfterClientDropsExclusiveFrame) {
  EdgeBed f;
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 5);          // exclusive at node 0
    f.compute[0].dsm->dropSegment(f.seg);  // abort-style drop, server not told
    // Node 0 itself refaults: the server sees owner==requester and heals.
    EXPECT_EQ(f.read64(self, 0, 0), 0u);  // store never saw the write
    f.write64(self, 0, 0, 9);
    EXPECT_EQ(f.read64(self, 1, 0), 9u);
  });
  f.sim.run();
}

TEST(DsmEdge, EvictionWritebackRacingInvalidateLosesNothing) {
  // Tiny cache on node 0: writing page 2 evicts dirty page 0 (write-back in
  // flight) while node 1 concurrently writes page 0 (invalidate). Whatever
  // interleaving results, node 1's value must win and no write "resurrects".
  EdgeBed f(2, 1, 42, /*frames=*/2);
  f.sim.spawn("node0", [&](sim::Process& self) {
    f.write64(self, 0, 0, 100);
    f.write64(self, 0, 1, 101);
    f.write64(self, 0, 2, 102);  // evicts page 0 (dirty)
  });
  f.sim.spawn("node1", [&](sim::Process& self) {
    self.delay(sim::msec(8));
    f.write64(self, 1, 0, 200);
  });
  f.sim.run();
  f.sim.spawn("check", [&](sim::Process& self) {
    EXPECT_EQ(f.read64(self, 1, 0), 200u);
    EXPECT_EQ(f.read64(self, 0, 1), 101u);
    EXPECT_EQ(f.read64(self, 0, 2), 102u);
  });
  f.sim.run();
}

TEST(DsmEdge, SegmentsOnTwoServersAreIndependent) {
  EdgeBed f(1, 2);
  const Sysname other = f.data[1].store->createSegment(2 * kPageSize).value();
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 11);
    auto h = f.compute[0].dsm->resolvePage(self, {other, 0}, Access::write);
    ASSERT_TRUE(h.ok());
    std::uint64_t v = 22;
    std::memcpy(h.value().mutableData(), &v, 8);
    // Crash server 1: segment `other` is unreachable, seg stays fine.
    f.data[1].node->crash();
    f.compute[0].dsm->dropSegment(other);
    EXPECT_FALSE(f.compute[0].dsm->resolvePage(self, {other, 0}, Access::read).ok());
    EXPECT_EQ(f.read64(self, 0, 0), 11u);
  });
  f.sim.run();
}

TEST(DsmEdge, DestroyedSegmentFaultsEverywhere) {
  EdgeBed f(2, 1);
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 3);
    ASSERT_TRUE(f.compute[0].dsm->destroySegment(self, f.seg).ok());
    EXPECT_EQ(f.compute[1].dsm->resolvePage(self, {f.seg, 0}, Access::read).code(),
              Errc::not_found);
    // Node 0's own cached frames were dropped by destroy as well.
    EXPECT_EQ(f.compute[0].dsm->resolvePage(self, {f.seg, 0}, Access::read).code(),
              Errc::not_found);
  });
  f.sim.run();
}

TEST(DsmEdge, PerSegmentHooksStopAtSegmentBoundaries) {
  // Segments minted back to back have adjacent sysnames, so in the
  // (segment, page)-ordered frame table the middle segment's frames sit
  // right between its neighbours'. Frames at page 0 and at a high page
  // mark both edges; every per-segment hook must touch the middle one only.
  Testbed f(1, 1);
  constexpr std::uint32_t kHigh = 1000;
  std::vector<Sysname> segs;
  for (int i = 0; i < 3; ++i) {
    segs.push_back(f.data[0].store->createSegment((kHigh + 1) * kPageSize).value());
  }
  ASSERT_LT(segs[0], segs[1]);
  ASSERT_LT(segs[1], segs[2]);
  dsm::DsmClientPartition& dsm = *f.compute[0].dsm;
  f.sim.spawn("driver", [&](sim::Process& self) {
    auto dirtyAll = [&] {
      for (const Sysname& s : segs) {
        for (const std::uint32_t page : {0u, kHigh}) {
          auto h = dsm.resolvePage(self, {s, page}, Access::write);
          ASSERT_TRUE(h.ok());
          h.value().mutableData()[0] = std::byte{1};
        }
      }
    };
    auto dirtyPages = [&](const Sysname& s) {
      std::vector<std::uint32_t> out;
      for (const store::PageUpdate& u : dsm.collectDirtyPages(s)) {
        EXPECT_EQ(u.key.segment, s);
        out.push_back(u.key.page);
      }
      return out;
    };
    const std::vector<std::uint32_t> both{0, kHigh};
    auto expectOnlyMiddle = [&](const std::vector<std::uint32_t>& middle) {
      EXPECT_EQ(dirtyPages(segs[0]), both);
      EXPECT_EQ(dirtyPages(segs[1]), middle);
      EXPECT_EQ(dirtyPages(segs[2]), both);
    };

    dirtyAll();
    expectOnlyMiddle(both);
    dsm.markSegmentClean(segs[1]);
    expectOnlyMiddle({});

    dirtyAll();
    auto writeBacks = [&] { return f.sim.metrics().counterValue("cpu0/dsm/write_backs"); };
    const std::uint64_t written_before = writeBacks();
    ASSERT_TRUE(dsm.flushSegment(self, segs[1]).ok());
    expectOnlyMiddle({});
    EXPECT_EQ(writeBacks(), written_before + 2);  // the middle segment's two pages

    dirtyAll();
    const std::uint64_t faults_before = dsm.faultCount();
    dsm.dropSegment(segs[1]);
    expectOnlyMiddle({});
    // The neighbours' frames are still resident; the middle one's refault.
    for (const Sysname& s : segs) {
      for (const std::uint32_t page : {0u, kHigh}) {
        ASSERT_TRUE(dsm.resolvePage(self, {s, page}, Access::read).ok());
      }
    }
    EXPECT_EQ(dsm.faultCount(), faults_before + 2);
  });
  f.sim.run();
}

TEST(DsmEdge, FlushAllWritesEveryDirtySegment) {
  EdgeBed f(1, 2);
  const Sysname other = f.data[1].store->createSegment(2 * kPageSize).value();
  f.sim.spawn("driver", [&](sim::Process& self) {
    f.write64(self, 0, 0, 41);
    auto h = f.compute[0].dsm->resolvePage(self, {other, 1}, Access::write);
    ASSERT_TRUE(h.ok());
    std::uint64_t v = 42;
    std::memcpy(h.value().mutableData(), &v, 8);
    ASSERT_TRUE(f.compute[0].dsm->flushAll(self).ok());
    Bytes page(kPageSize);
    ASSERT_TRUE(readPageInto(*f.data[0].store, self, {f.seg, 0}, page).ok());
    std::uint64_t got = 0;
    std::memcpy(&got, page.data(), 8);
    EXPECT_EQ(got, 41u);
    ASSERT_TRUE(readPageInto(*f.data[1].store, self, {other, 1}, page).ok());
    std::memcpy(&got, page.data(), 8);
    EXPECT_EQ(got, 42u);
  });
  f.sim.run();
}

// Property sweep: random per-page single-writer programs under varying frame
// capacities (eviction pressure) must preserve read-your-writes and final
// store contents after flush.
class DsmCapacitySweep : public ::testing::TestWithParam<int> {};

TEST_P(DsmCapacitySweep, ReadYourWritesUnderEvictionPressure) {
  const auto frames = static_cast<std::size_t>(GetParam());
  EdgeBed f(1, 1, 99, frames);
  f.sim.spawn("driver", [&](sim::Process& self) {
    std::uint64_t expect[8] = {};
    auto& rng = f.sim.rng();
    for (int step = 0; step < 60; ++step) {
      const auto page = static_cast<std::uint32_t>(rng() % 8);
      if (rng() % 2 == 0) {
        const std::uint64_t v = rng();
        f.write64(self, 0, page, v);
        expect[page] = v;
      } else {
        EXPECT_EQ(f.read64(self, 0, page), expect[page]) << "step " << step;
      }
    }
    ASSERT_TRUE(f.compute[0].dsm->flushAll(self).ok());
    for (std::uint32_t p = 0; p < 8; ++p) {
      Bytes page(kPageSize);
      ASSERT_TRUE(readPageInto(*f.data[0].store, self, {f.seg, p}, page).ok());
      std::uint64_t got = 0;
      std::memcpy(&got, page.data(), 8);
      EXPECT_EQ(got, expect[p]) << "page " << p;
    }
  });
  f.sim.run();
}

INSTANTIATE_TEST_SUITE_P(FrameCapacities, DsmCapacitySweep, ::testing::Values(2, 3, 8, 64));

TEST(DsmEdge, DropSegmentDuringBlockedFaultKeepsFrameAlive) {
  // A faulting process blocks (RaTP to the remote home) while holding a
  // reference into the frame map; a transaction rollback on the same node
  // may dropSegment() during that window. dropSegment must invalidate in
  // place, never erase — erasing frees the frame under the faulting
  // process (heap-use-after-free, caught by the ASan lane).
  EdgeBed f;
  f.sim.spawn("writer", [&](sim::Process& self) {
    f.write64(self, 0, 0, 41);
    ASSERT_TRUE(f.compute[0].dsm->flushSegment(self, f.seg).ok());
  });
  f.sim.spawn("faulter", [&](sim::Process& self) {
    self.delay(sim::msec(10));  // let the writer flush first
    EXPECT_EQ(f.read64(self, 1, 0), 41u);
  });
  f.sim.spawn("dropper", [&](sim::Process& self) {
    // Land inside the faulter's remote fetch: after the request leaves,
    // before the grant is installed.
    self.delay(sim::msec(10) + sim::usec(400));
    f.compute[1].dsm->dropSegment(f.seg);
  });
  f.sim.run();
  // The dropped (invalidated, not erased) frame refaults cleanly.
  f.sim.spawn("refault", [&](sim::Process& self) {
    EXPECT_EQ(f.read64(self, 1, 0), 41u);
  });
  f.sim.run();
}

TEST(DsmEdge, DestroyDuringBlockedWriteBackKeepsDirectoryEntriesAlive) {
  // A read of page 1 holds its directory entry through a degrade callback to
  // the page's owner. Meanwhile the owner's write-back of pages 0 and 1
  // locks page 0 and waits for page 1, and a destroy of the segment lands.
  // The destroy must reset the entries in place, never erase them: the read
  // and the batch still hold them, and erasing frees both entries under
  // them (heap-use-after-free, caught by the ASan lane).
  EdgeBed f;
  dsm::DsmServer& server = *f.data[0].server;
  const net::NodeId owner = f.compute[0].node->id();
  const net::NodeId reader = f.compute[1].node->id();
  auto serve = [&](sim::Process& self, net::NodeId client, const dsm::Request& request) {
    const Bytes reply = server.serveDsm(self, client, dsm::encodeRequest(request)).flatten();
    return static_cast<Errc>(reply.at(0));
  };
  int finished = 0;
  f.sim.spawn("setup", [&](sim::Process& self) {
    f.write64(self, 0, 0, 7);  // both pages exclusive at the owner
    f.write64(self, 0, 1, 8);
    f.sim.spawn("read", [&](sim::Process& p) {
      (void)serve(p, reader, {.op = dsm::Op::read_page, .key = {f.seg, 1}});
      ++finished;
    });
    f.sim.spawn("write-back", [&](sim::Process& p) {
      p.delay(sim::msec(1));  // inside the read's callback
      (void)serve(p, owner,
                  {.op = dsm::Op::write_back_batch,
                   .updates = {{{f.seg, 0}, Bytes(kPageSize)}, {{f.seg, 1}, Bytes(kPageSize)}}});
      ++finished;
    });
    f.sim.spawn("destroy", [&](sim::Process& p) {
      p.delay(sim::msec(2));  // while the batch waits for page 1
      EXPECT_EQ(serve(p, owner, {.op = dsm::Op::destroy_segment, .segment = f.seg}), Errc::ok);
      ++finished;
    });
  });
  f.sim.run();
  EXPECT_EQ(finished, 3);
  f.sim.spawn("after", [&](sim::Process& self) {
    EXPECT_EQ(f.compute[1].dsm->resolvePage(self, {f.seg, 0}, Access::read).code(),
              Errc::not_found);
  });
  f.sim.run();
}

}  // namespace
}  // namespace clouds::test
