// Storage engine v2 test battery (docs/STORAGE.md).
//
// Covers the wal engine's four load-bearing promises:
//  * group commit — concurrent forcers coalesce into one batched log write,
//    which is where the engine's throughput win over the flat path comes from;
//  * durability — an acknowledged write/prepare/decision survives any crash,
//    an unacknowledged one either fully survives (torn-tail promotion) or
//    fully vanishes, and aborted data never resurrects;
//  * bounded log — the checkpointer truncates everything the images already
//    cover, except prepare records whose transaction is still undecided;
//  * equivalence — a program that cannot observe timing cannot distinguish
//    the engines: the same operation stream produces the same results, the
//    same errors, and the same durable state under flat and wal.
#include "store/disk_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "store/checkpoint.hpp"
#include "store_read.hpp"

namespace clouds::store {
namespace {

Bytes page(std::byte fill) { return Bytes(ra::kPageSize, fill); }

// A page image carrying a 16-bit tag in its first two bytes; an unwritten
// page reads as tag 0.
Bytes tagged(std::uint16_t tag) {
  Bytes b(ra::kPageSize);
  b[0] = static_cast<std::byte>(tag & 0xff);
  b[1] = static_cast<std::byte>(tag >> 8);
  return b;
}

std::uint16_t tagOf(const Bytes& b) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(b[0]) |
                                    (static_cast<std::uint16_t>(b[1]) << 8));
}

struct WalFixture {
  sim::Simulation sim{7};
  sim::CostModel cost;
  DiskStore store{100, cost, /*cache=*/8, StoreEngine::wal};

  WalFixture() { store.attachMetrics(sim.metrics(), "ds"); }
  std::uint64_t counter(const std::string& name) const {
    return sim.metrics().counterValue("ds/" + name);
  }
  void run(std::function<void(sim::Process&)> fn) {
    sim.spawn("driver", std::move(fn));
    sim.run();
  }
};

// ---------------------------------------------------------------------------
// Write path: read-your-committed-writes before write-back, then write-back.
// ---------------------------------------------------------------------------

TEST(DirtyTable, PurgesStopAtSegmentBoundaries) {
  // Three adjacent segment names; each holds pages at both ends of the page
  // range, so a purge that overran its segment would take a neighbour's.
  wal::DirtyTable t;
  const Sysname segs[] = {ra::makeHomedSysname(7, 1), ra::makeHomedSysname(7, 2),
                          ra::makeHomedSysname(7, 3)};
  const ra::PageIndex pages[] = {0, 1, 5, std::numeric_limits<ra::PageIndex>::max()};
  const Bytes image(16, std::byte{1});
  std::uint64_t lsn = 1;
  for (const Sysname& s : segs) {
    for (ra::PageIndex p : pages) t.stage({s, p}, image, lsn++);
  }
  auto staged = [&](const Sysname& s) {
    std::vector<ra::PageIndex> out;
    for (ra::PageIndex p : pages) {
      if (t.find({s, p}) != nullptr) out.push_back(p);
    }
    return out;
  };
  const std::vector<ra::PageIndex> all(std::begin(pages), std::end(pages));

  t.purgeBeyond(segs[1], 5);  // drops pages 5 and UINT32_MAX: at or past the count
  EXPECT_EQ(staged(segs[0]), all);
  EXPECT_EQ(staged(segs[1]), (std::vector<ra::PageIndex>{0, 1}));
  EXPECT_EQ(staged(segs[2]), all);

  t.purgeSegment(segs[1]);
  EXPECT_EQ(staged(segs[0]), all);
  EXPECT_TRUE(staged(segs[1]).empty());
  EXPECT_EQ(staged(segs[2]), all);
  EXPECT_EQ(t.size(), 2 * all.size());
}

TEST(WalStore, CommittedWritesVisibleBeforeWriteBack) {
  WalFixture f;
  auto name = f.store.createSegment(4 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    ASSERT_TRUE(f.store.writePage(self, {name, 1}, page(std::byte{0xab})).ok());
    // Durable in the log, not yet in the segment image.
    EXPECT_EQ(f.counter("wal/forces"), 1u);
    EXPECT_EQ(f.store.dirtyPageCount(), 1u);
    EXPECT_EQ(f.store.diskWrites(), 0u);
    Bytes buf(ra::kPageSize);
    auto written = test::readPageInto(f.store, self, {name, 1}, buf);
    ASSERT_TRUE(written.ok());
    EXPECT_TRUE(written.value());
    EXPECT_EQ(buf[0], std::byte{0xab});
    // One bounded sweep applies the image, checkpoints, and truncates.
    auto applied = f.store.writeBackSome(self, 64);
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(applied.value(), 1u);
    EXPECT_EQ(f.store.dirtyPageCount(), 0u);
    EXPECT_EQ(f.store.diskWrites(), 1u);
    EXPECT_GT(f.store.walAppliedLsn(), 0u);
    ASSERT_TRUE(test::readPageInto(f.store, self, {name, 1}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0xab});
  });
}

// ---------------------------------------------------------------------------
// Group commit: concurrent writers share one force and beat flat by >= 2x.
// ---------------------------------------------------------------------------

// Sixteen writers each run four single-page transactions (prepare + commit)
// back to back — the 2PC participant pattern the consistency layer drives.
sim::Duration runConcurrentCommitters(StoreEngine engine, std::uint64_t* forces_out) {
  sim::Simulation sim{11};
  sim::CostModel cost;
  DiskStore store{100, cost, /*cache=*/64, engine};
  store.attachMetrics(sim.metrics(), "ds");
  auto name = store.createSegment(16 * ra::kPageSize).value();
  constexpr std::uint32_t kWriters = 16;
  constexpr std::uint32_t kTxnsEach = 4;
  for (std::uint32_t w = 0; w < kWriters; ++w) {
    sim.spawn("writer" + std::to_string(w), [&store, name, w](sim::Process& self) {
      for (std::uint32_t i = 0; i < kTxnsEach; ++i) {
        const std::uint64_t txid = w * 100 + i;
        std::vector<PageUpdate> ups;
        ups.push_back({{name, w}, page(static_cast<std::byte>(i + 1))});
        ASSERT_TRUE(store.prepare(self, txid, std::move(ups)).ok());
        ASSERT_TRUE(store.commitPrepared(self, txid).ok());
      }
    });
  }
  sim.run();
  const sim::Duration elapsed = sim.now() - sim::TimePoint{};
  if (forces_out != nullptr) *forces_out = sim.metrics().counterValue("ds/wal/forces");
  // Every commit must be durable and readable regardless of engine.
  sim.spawn("audit", [&store, name](sim::Process& self) {
    for (std::uint32_t w = 0; w < kWriters; ++w) {
      Bytes buf(ra::kPageSize);
      auto written = test::readPageInto(store, self, {name, w}, buf);
      ASSERT_TRUE(written.ok());
      EXPECT_TRUE(written.value());
      EXPECT_EQ(buf[0], static_cast<std::byte>(kTxnsEach));
    }
  });
  sim.run();
  return elapsed;
}

TEST(WalStore, GroupCommitCoalescesSixteenCommitters) {
  std::uint64_t flat_forces = 0;
  std::uint64_t wal_forces = 0;
  const sim::Duration flat_elapsed = runConcurrentCommitters(StoreEngine::flat, &flat_forces);
  const sim::Duration wal_elapsed = runConcurrentCommitters(StoreEngine::wal, &wal_forces);
  EXPECT_EQ(flat_forces, 0u);
  // 128 force points (64 prepares + 64 commits) coalesce into a handful of
  // batched log writes: concurrent forcers share one leader per window.
  EXPECT_LE(wal_forces, 16u);
  // The acceptance bar from EXPERIMENTS E11, enforced at the store level:
  // 16-writer sustained commit throughput at least doubles over the flat
  // engine's serialized prepare/commit/apply path.
  EXPECT_LE(wal_elapsed * 2, flat_elapsed)
      << "wal=" << wal_elapsed.count() << "ns flat=" << flat_elapsed.count() << "ns";
}

// ---------------------------------------------------------------------------
// Crash semantics: torn tail, prefix promotion, replay.
// ---------------------------------------------------------------------------

TEST(WalStore, CrashDuringForceDropsUnforcedTail) {
  WalFixture f;
  auto name = f.store.createSegment(2 * ra::kPageSize).value();
  Result<void> write_result = okResult();
  f.sim.spawn("writer", [&](sim::Process& self) {
    write_result = f.store.writePage(self, {name, 0}, page(std::byte{0x5c}));
  });
  // Crash inside the group-commit window: the record is appended but never
  // forced, so the reboot must drop it and the writer must see the failure.
  f.sim.schedule(sim::usec(50), [&] { f.store.loseVolatileState(); });
  f.sim.run();
  EXPECT_EQ(write_result.code(), Errc::io);
  EXPECT_EQ(f.store.walDurableLsn(), 0u);
  EXPECT_EQ(f.store.walRecordCount(), 0u);
  f.run([&](sim::Process& self) {
    Bytes buf(ra::kPageSize, std::byte{0xff});
    auto written = test::readPageInto(f.store, self, {name, 0}, buf);
    ASSERT_TRUE(written.ok());
    EXPECT_FALSE(written.value());
    EXPECT_EQ(buf[0], std::byte{0});
  });
}

TEST(WalStore, TornTailPromotesPrefixOfForceBatch) {
  WalFixture f;
  auto name = f.store.createSegment(2 * ra::kPageSize).value();
  Result<void> first = okResult();
  Result<void> second = okResult();
  f.sim.spawn("w0", [&](sim::Process& self) {
    first = f.store.writePage(self, {name, 0}, page(std::byte{0xaa}));
  });
  f.sim.spawn("w1", [&](sim::Process& self) {
    second = f.store.writePage(self, {name, 1}, page(std::byte{0xbb}));
  });
  // The log is sequential: a torn force persists a prefix. Keep one record —
  // w0's write survives even though its ack was lost; w1's vanishes.
  f.store.setTornTailKeep(1);
  f.sim.schedule(sim::usec(100), [&] { f.store.loseVolatileState(); });
  f.sim.run();
  EXPECT_EQ(first.code(), Errc::io);
  EXPECT_EQ(second.code(), Errc::io);
  EXPECT_EQ(f.store.walDurableLsn(), 1u);
  f.run([&](sim::Process& self) {
    Bytes buf(ra::kPageSize);
    auto p0 = test::readPageInto(f.store, self, {name, 0}, buf);
    ASSERT_TRUE(p0.ok());
    EXPECT_TRUE(p0.value());
    EXPECT_EQ(buf[0], std::byte{0xaa});
    auto p1 = test::readPageInto(f.store, self, {name, 1}, buf);
    ASSERT_TRUE(p1.ok());
    EXPECT_FALSE(p1.value());
  });
}

TEST(WalStore, RebootKeepsCommittedDropsAbortedAndChargesReplay) {
  WalFixture f;
  auto name = f.store.createSegment(4 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    std::vector<PageUpdate> t1;
    t1.push_back({{name, 0}, page(std::byte{0xaa})});
    ASSERT_TRUE(f.store.prepare(self, 1, std::move(t1)).ok());
    std::vector<PageUpdate> t2;
    t2.push_back({{name, 1}, page(std::byte{0xbb})});
    ASSERT_TRUE(f.store.prepare(self, 2, std::move(t2)).ok());
    ASSERT_TRUE(f.store.commitPrepared(self, 1).ok());
    ASSERT_TRUE(f.store.abortPrepared(self, 2).ok());
    ASSERT_TRUE(f.store.writePage(self, {name, 2}, page(std::byte{0xcc})).ok());

    f.store.loseVolatileState();
    EXPECT_FALSE(f.store.hasPrepared(1));
    EXPECT_FALSE(f.store.hasPrepared(2));
    const sim::TimePoint before = f.sim.now();
    auto replayed = f.store.recover(self);
    ASSERT_TRUE(replayed.ok());
    EXPECT_GT(replayed.value(), 0u);
    EXPECT_EQ(f.sim.now() - before,
              f.cost.disk_seek_rotate + static_cast<std::int64_t>(replayed.value()) *
                                            f.cost.wal_replay_per_record);

    Bytes buf(ra::kPageSize);
    ASSERT_TRUE(test::readPageInto(f.store, self, {name, 0}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0xaa});  // committed before the crash
    auto aborted = test::readPageInto(f.store, self, {name, 1}, buf);
    ASSERT_TRUE(aborted.ok());
    EXPECT_FALSE(aborted.value());  // aborted data never resurrects
    ASSERT_TRUE(test::readPageInto(f.store, self, {name, 2}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0xcc});
  });
}

// ---------------------------------------------------------------------------
// Checkpoint / truncation: the log stays bounded, undecided prepares pin it.
// ---------------------------------------------------------------------------

TEST(WalStore, CheckpointTruncatesButUndecidedPreparePins) {
  WalFixture f;
  auto name = f.store.createSegment(8 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    std::vector<PageUpdate> ups;
    ups.push_back({{name, 7}, page(std::byte{0x77})});
    ASSERT_TRUE(f.store.prepare(self, 42, std::move(ups)).ok());
    for (int round = 0; round < 3; ++round) {
      for (std::uint32_t p = 0; p < 6; ++p) {
        ASSERT_TRUE(f.store
                        .writePage(self, {name, p},
                                   page(static_cast<std::byte>(round * 6 + p + 1)))
                        .ok());
      }
      ASSERT_TRUE(f.store.writeBackSome(self, 64).ok());
    }
    // 18 page writes and 3 checkpoints went through the log, yet only the
    // undecided prepare and the newest checkpoint record remain.
    EXPECT_GT(f.counter("wal/records_truncated"), 0u);
    EXPECT_GE(f.counter("wal/checkpoints"), 3u);
    EXPECT_LE(f.store.walRecordCount(), 4u);

    f.store.loseVolatileState();
    EXPECT_TRUE(f.store.hasPrepared(42));  // truncation never orphans a prepare
    ASSERT_TRUE(f.store.commitPrepared(self, 42).ok());
    Bytes buf(ra::kPageSize);
    ASSERT_TRUE(test::readPageInto(f.store, self, {name, 7}, buf).ok());
    EXPECT_EQ(buf[0], std::byte{0x77});
  });
}

TEST(WalStore, BackgroundFlusherDrainsAndCheckpoints) {
  WalFixture f;
  f.store.startFlusher(f.sim);
  auto name = f.store.createSegment(4 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(f.store.writePage(self, {name, p}, page(std::byte{0x21})).ok());
    }
    EXPECT_EQ(f.store.dirtyPageCount(), 4u);
    self.delay(f.cost.wal_writeback_interval * 4);
  });
  EXPECT_EQ(f.store.dirtyPageCount(), 0u);
  EXPECT_GE(f.counter("wal/checkpoints"), 1u);
  EXPECT_EQ(f.counter("wal/pages_written_back"), 4u);
  // Everything the flusher applied still reads back after a reboot.
  f.run([&](sim::Process& self) {
    f.store.loseVolatileState();
    Bytes buf(ra::kPageSize);
    for (std::uint32_t p = 0; p < 4; ++p) {
      ASSERT_TRUE(test::readPageInto(f.store, self, {name, p}, buf).ok());
      EXPECT_EQ(buf[0], std::byte{0x21});
    }
  });
}

// ---------------------------------------------------------------------------
// Snapshots: the v2 format round-trips the log and loads across engines.
// ---------------------------------------------------------------------------

TEST(WalStore, SnapshotRoundTripsAcrossEngines) {
  const std::string path = ::testing::TempDir() + "/clouds_wal_snapshot.bin";
  Sysname name;
  {
    WalFixture f;
    name = f.store.createSegment(2 * ra::kPageSize).value();
    f.run([&](sim::Process& self) {
      ASSERT_TRUE(f.store.writePage(self, {name, 1}, page(std::byte{0x5a})).ok());
      std::vector<PageUpdate> ups;
      ups.push_back({{name, 0}, page(std::byte{0x77})});
      ASSERT_TRUE(f.store.prepare(self, 9, std::move(ups)).ok());
    });
    ASSERT_TRUE(f.store.saveTo(path).ok());
  }
  {
    // wal -> wal: log, dirty table, and the in-doubt transaction survive.
    WalFixture f;
    ASSERT_TRUE(f.store.loadFrom(path).ok());
    EXPECT_TRUE(f.store.hasPrepared(9));
    f.run([&](sim::Process& self) {
      Bytes buf(ra::kPageSize);
      ASSERT_TRUE(test::readPageInto(f.store, self, {name, 1}, buf).ok());
      EXPECT_EQ(buf[0], std::byte{0x5a});
      ASSERT_TRUE(f.store.commitPrepared(self, 9).ok());
      ASSERT_TRUE(test::readPageInto(f.store, self, {name, 0}, buf).ok());
      EXPECT_EQ(buf[0], std::byte{0x77});
    });
  }
  {
    // wal -> flat: the durable log is replayed into the images on load, and
    // the in-doubt transaction is still decidable.
    sim::Simulation sim{7};
    sim::CostModel cost;
    DiskStore store{100, cost, /*cache=*/8, StoreEngine::flat};
    ASSERT_TRUE(store.loadFrom(path).ok());
    EXPECT_TRUE(store.hasPrepared(9));
    sim.spawn("driver", [&](sim::Process& self) {
      Bytes buf(ra::kPageSize);
      ASSERT_TRUE(test::readPageInto(store, self, {name, 1}, buf).ok());
      EXPECT_EQ(buf[0], std::byte{0x5a});
      ASSERT_TRUE(store.abortPrepared(self, 9).ok());
      auto p0 = test::readPageInto(store, self, {name, 0}, buf);
      ASSERT_TRUE(p0.ok());
      EXPECT_FALSE(p0.value());
    });
    sim.run();
  }
  {
    // flat -> wal: a snapshot without a log section synthesizes durable
    // prepare records so the 2PC contract carries over.
    sim::Simulation sim{7};
    sim::CostModel cost;
    DiskStore flat{100, cost, /*cache=*/8, StoreEngine::flat};
    Sysname fname;
    sim.spawn("driver", [&](sim::Process& self) {
      fname = flat.createSegment(ra::kPageSize).value();
      ASSERT_TRUE(flat.writePage(self, {fname, 0}, page(std::byte{0x11})).ok());
      std::vector<PageUpdate> ups;
      ups.push_back({{fname, 0}, page(std::byte{0x22})});
      ASSERT_TRUE(flat.prepare(self, 4, std::move(ups)).ok());
    });
    sim.run();
    ASSERT_TRUE(flat.saveTo(path).ok());

    WalFixture f;
    ASSERT_TRUE(f.store.loadFrom(path).ok());
    EXPECT_TRUE(f.store.hasPrepared(4));
    f.run([&](sim::Process& self) {
      Bytes buf(ra::kPageSize);
      ASSERT_TRUE(test::readPageInto(f.store, self, {fname, 0}, buf).ok());
      EXPECT_EQ(buf[0], std::byte{0x11});
      ASSERT_TRUE(f.store.commitPrepared(self, 4).ok());
      ASSERT_TRUE(test::readPageInto(f.store, self, {fname, 0}, buf).ok());
      EXPECT_EQ(buf[0], std::byte{0x22});
    });
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Snapshot loading refuses what saveTo never writes. Each case patches one
// field of a snapshot that saveTo did write.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSnapTxid = 0x5eed5eed5eed5eedull;

// A temp file path of the running test's own: ctest runs the tests of this
// file as parallel processes, which must not share a file.
std::string tempPath(const std::string& what) {
  return ::testing::TempDir() + "/clouds_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + what + ".bin";
}

Bytes readFile(const std::string& path) {
  Bytes out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::byte buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.insert(out.end(), buf, buf + n);
  std::fclose(f);
  return out;
}

void writeFile(const std::string& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

// A wal store's snapshot: one two-page segment whose page 0 (tag 0x0a0a)
// is written back into the segment image and whose page 1 (tag 0x0b0b) is
// committed but still only in the log, plus transaction kSnapTxid prepared
// over page 0.
Bytes savedSnapshot() {
  WalFixture f;
  const Sysname seg = f.store.createSegment(2 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    ASSERT_TRUE(f.store.writePage(self, {seg, 0}, tagged(0x0a0a)).ok());
    ASSERT_TRUE(f.store.writeBackSome(self, 64).ok());
    ASSERT_TRUE(f.store.writePage(self, {seg, 1}, tagged(0x0b0b)).ok());
    std::vector<PageUpdate> ups;
    ups.push_back({{seg, 0}, tagged(0x0c0c)});
    ASSERT_TRUE(f.store.prepare(self, kSnapTxid, std::move(ups)).ok());
  });
  const std::string path = tempPath("saved_snapshot");
  EXPECT_TRUE(f.store.saveTo(path).ok());
  Bytes file = readFile(path);
  std::remove(path.c_str());
  return file;
}

// The snapshot format does not depend on how the store holds its images in
// memory. A wal store with a written-back page, committed pages still staged
// in the dirty table, a committed transaction whose images live only in the
// log, and a prepared one saves to the bytes pinned here (recorded before
// page images were shared by reference).
TEST(WalStore, SnapshotBytesArePinned) {
  WalFixture f;
  const Sysname a = f.store.createSegment(3 * ra::kPageSize).value();
  const Sysname b = f.store.createSegment(2 * ra::kPageSize).value();
  f.run([&](sim::Process& self) {
    ASSERT_TRUE(f.store.writePage(self, {a, 0}, tagged(0x0101)).ok());
    ASSERT_TRUE(f.store.writeBackSome(self, 64).ok());
    ASSERT_TRUE(
        f.store.writePages(self, {{{a, 1}, tagged(0x0202)}, {{b, 0}, tagged(0x0303)}}).ok());
    ASSERT_TRUE(f.store.prepare(self, 11, {{{a, 2}, tagged(0x0404)}}).ok());
    ASSERT_TRUE(f.store.commitPrepared(self, 11).ok());
    ASSERT_TRUE(f.store
                    .prepare(self, kSnapTxid,
                             {{{b, 1}, tagged(0x0505)}, {{a, 0}, tagged(0x0606)}})
                    .ok());
  });
  EXPECT_EQ(f.store.dirtyPageCount(), 3u);
  EXPECT_EQ(f.store.walRecordCount(), 5u);
  const std::string path = tempPath("pinned_snapshot");
  ASSERT_TRUE(f.store.saveTo(path).ok());
  const Bytes file = readFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(file.size(), 65980u);
  EXPECT_EQ(fnv1a(file), 0xf00781aab37782edull);
}

// The flat engine's twin: the same operations on a flat store, whose
// snapshot has no log section and keeps its prepared transaction in the
// prepared section.
TEST(WalStore, FlatEngineSnapshotBytesArePinned) {
  sim::Simulation sim{7};
  sim::CostModel cost;
  DiskStore store{100, cost, /*cache=*/8, StoreEngine::flat};
  sim.spawn("driver", [&](sim::Process& self) {
    const Sysname a = store.createSegment(3 * ra::kPageSize).value();
    const Sysname b = store.createSegment(2 * ra::kPageSize).value();
    ASSERT_TRUE(store.writePage(self, {a, 0}, tagged(0x0101)).ok());
    ASSERT_TRUE(store.writePages(self, {{{a, 1}, tagged(0x0202)}, {{b, 0}, tagged(0x0303)}}).ok());
    ASSERT_TRUE(store.prepare(self, 11, {{{a, 2}, tagged(0x0404)}}).ok());
    ASSERT_TRUE(store.commitPrepared(self, 11).ok());
    ASSERT_TRUE(
        store.prepare(self, kSnapTxid, {{{b, 1}, tagged(0x0505)}, {{a, 0}, tagged(0x0606)}})
            .ok());
  });
  sim.run();
  const std::string path = tempPath("pinned_flat_snapshot");
  ASSERT_TRUE(store.saveTo(path).ok());
  const Bytes file = readFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(file.size(), 49327u);
  EXPECT_EQ(fnv1a(file), 0xcf327adef68ec289ull);
}

// A field as the snapshot encodes it.
Bytes field(const std::function<void(Encoder&)>& put) {
  Encoder e;
  put(e);
  return std::move(e).take();
}

// Offset of the last copy of `what` in `file`.
std::size_t lastOffset(const Bytes& file, const Bytes& what) {
  const auto it = std::find_end(file.begin(), file.end(), what.begin(), what.end());
  EXPECT_NE(it, file.end());
  return static_cast<std::size_t>(it - file.begin());
}

void splice(Bytes& file, std::size_t at, std::size_t length, const Bytes& with) {
  const auto pos = file.begin() + static_cast<std::ptrdiff_t>(at);
  file.erase(pos, pos + static_cast<std::ptrdiff_t>(length));
  file.insert(file.begin() + static_cast<std::ptrdiff_t>(at), with.begin(), with.end());
}

// Loads `file` into a store that holds a segment of its own: the load must
// fail with Errc::io and leave that store as it was.
void expectRefused(const Bytes& file) {
  const std::string path = tempPath("patched_snapshot");
  writeFile(path, file);
  sim::CostModel cost;
  DiskStore store{300, cost, /*cache=*/8, StoreEngine::wal};
  const Sysname own = store.createSegment(ra::kPageSize).value();
  EXPECT_EQ(store.loadFrom(path).code(), Errc::io);
  EXPECT_TRUE(store.stat(own).ok());
  EXPECT_EQ(store.homeNode(), 300u);
  EXPECT_FALSE(store.hasPrepared(kSnapTxid));
  EXPECT_EQ(store.walRecordCount(), 0u);
  std::remove(path.c_str());
}

TEST(WalStore, SnapshotLoadRefusesPageImagesOfTheWrongSize) {
  const Bytes saved = savedSnapshot();
  {
    // Unpatched, the snapshot loads and serves both pages.
    const std::string path = tempPath("unpatched_snapshot");
    writeFile(path, saved);
    WalFixture f;
    ASSERT_TRUE(f.store.loadFrom(path).ok());
    EXPECT_TRUE(f.store.hasPrepared(kSnapTxid));
    std::remove(path.c_str());
  }
  // readPage hands a stored page, and a logged one through the dirty table,
  // out as a kPageSize image: a 10-byte image would be overread.
  for (const std::uint16_t tag : {0x0a0a, 0x0b0b}) {
    SCOPED_TRACE(tag);
    Bytes file = saved;
    const Bytes image = field([&](Encoder& e) { e.bytes(tagged(tag)); });
    splice(file, lastOffset(file, image), image.size(),
           field([](Encoder& e) { e.bytes(Bytes(10, std::byte{0x0a})); }));
    expectRefused(file);
  }
}

TEST(WalStore, SnapshotLoadRefusesAPageBeyondItsSegment) {
  const Bytes saved = savedSnapshot();
  // The stored page's index precedes its image.
  const Bytes image = field([](Encoder& e) { e.bytes(tagged(0x0a0a)); });
  const std::size_t index_at = lastOffset(saved, image) - 4;
  for (const std::uint32_t page : {2u, 1000u}) {
    SCOPED_TRACE(page);
    Bytes file = saved;
    splice(file, index_at, 4, field([&](Encoder& e) { e.u32(page); }));
    expectRefused(file);
  }
}

TEST(WalStore, SnapshotLoadRefusesAnUnknownLogRecordKind) {
  const Bytes saved = savedSnapshot();
  // The prepare record is kind:u8, lsn:u64, txid:u64, ...; its txid's last
  // copy in the file is the record's (the prepared section comes first).
  const std::size_t kind_at =
      lastOffset(saved, field([](Encoder& e) { e.u64(kSnapTxid); })) - 9;
  ASSERT_EQ(saved[kind_at], static_cast<std::byte>(wal::RecordKind::prepare));
  for (const std::uint8_t kind : {0, 6, 255}) {
    SCOPED_TRACE(kind);
    Bytes file = saved;
    file[kind_at] = static_cast<std::byte>(kind);
    expectRefused(file);
  }
}

TEST(WalStore, SnapshotLoadRefusesOtherFormatVersions) {
  // The layout with checkpoint hashes (magic 0xC10D5702): an empty store
  // whose log holds one checkpoint record.
  Encoder v2;
  v2.u32(0xC10D5702u);
  v2.u32(100);   // home node
  v2.u64(1);     // next segment sequence
  v2.u32(0);     // segments
  v2.u32(0);     // prepared transactions
  v2.u8(1);      // a log follows
  v2.u64(2);     // next lsn
  v2.u64(1);     // durable lsn
  v2.u64(1);     // applied lsn
  v2.u64(0x77);  // content hash
  v2.u32(1);     // records
  v2.u8(static_cast<std::uint8_t>(wal::RecordKind::checkpoint));
  v2.u64(1);     // lsn
  v2.u64(0);     // txid
  v2.u64(1);     // applied lsn
  v2.u64(0x77);  // content hash
  v2.u32(0);     // updates
  expectRefused(std::move(v2).take());
  // The layout before it (magic 0xC10D5701) had no log section.
  Encoder v1;
  v1.u32(0xC10D5701u);
  v1.u32(100);
  v1.u64(1);
  v1.u32(0);
  v1.u32(0);
  expectRefused(std::move(v1).take());
}

TEST(WalStore, SnapshotLoadRefusesAFileCutShort) {
  const Bytes saved = savedSnapshot();
  // Empty, inside the magic, inside a segment's header, inside a stored
  // page, in the prepared section, and one byte short of the whole log.
  const std::size_t image_at =
      lastOffset(saved, field([](Encoder& e) { e.bytes(tagged(0x0a0a)); }));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{2}, std::size_t{30}, image_at + 100,
                                image_at + 4 + ra::kPageSize + 8, saved.size() - 1}) {
    SCOPED_TRACE(cut);
    expectRefused(Bytes(saved.begin(), saved.begin() + static_cast<std::ptrdiff_t>(cut)));
  }
}

// ---------------------------------------------------------------------------
// Engine equivalence: one operation stream, two engines, identical traces.
// ---------------------------------------------------------------------------

struct SweepOp {
  enum Kind : std::uint8_t {
    write,
    prepare,
    decide_known,
    decide_unknown,
    crash,
    read,
    toggle_fault,
    resize
  };
  Kind kind = read;
  std::uint32_t page = 0;
  std::uint8_t fill = 0;
  std::uint64_t txid = 0;
  std::uint32_t extra_page = 0;  // second prepare update (when two_updates)
  bool two_updates = false;
  bool commit = false;
  std::uint64_t new_pages = 0;  // resize target
};

// Pre-generate a deterministic stream. Only structural choices the driver
// cannot make blindly are constrained here: decisions target transactions
// that were actually prepared without a fault, and resizes wait until no
// transaction is pending (a shrink under a pending prepare would exercise
// commit-time partial-application, which the engines deliberately do not
// promise to match).
std::vector<SweepOp> makeSweep(std::uint64_t seed, std::size_t steps) {
  std::mt19937_64 rng(seed);
  std::vector<SweepOp> ops;
  std::set<std::uint64_t> pending;
  std::uint64_t next_tx = 1;
  bool faulty = false;
  for (std::size_t i = 0; i < steps; ++i) {
    SweepOp op;
    switch (rng() % 12) {
      case 0:
      case 1:
      case 2:
        op.kind = SweepOp::write;
        op.page = static_cast<std::uint32_t>(rng() % 10);  // 8..9 out of range
        op.fill = static_cast<std::uint8_t>(rng() & 0xff);
        break;
      case 3:
      case 4:
        op.kind = SweepOp::prepare;
        op.txid = next_tx++;
        op.page = static_cast<std::uint32_t>(rng() % 4);
        op.two_updates = (rng() % 2) == 0;
        op.extra_page = static_cast<std::uint32_t>(rng() % 4);
        if (!faulty) pending.insert(op.txid);
        break;
      case 5:
        if (!pending.empty()) {
          op.kind = SweepOp::decide_known;
          auto it = pending.begin();
          std::advance(it, static_cast<long>(rng() % pending.size()));
          op.txid = *it;
          op.commit = (rng() % 2) == 0;
          pending.erase(it);
        } else {
          op.kind = SweepOp::read;
          op.page = static_cast<std::uint32_t>(rng() % 8);
        }
        break;
      case 6:
        op.kind = SweepOp::decide_unknown;
        op.txid = 9000 + rng() % 8;
        op.commit = (rng() % 2) == 0;
        break;
      case 7:
        op.kind = SweepOp::crash;
        break;
      case 8:
      case 9:
        op.kind = SweepOp::read;
        op.page = static_cast<std::uint32_t>(rng() % 10);
        break;
      case 10:
        op.kind = SweepOp::toggle_fault;
        faulty = !faulty;
        break;
      default:
        if (pending.empty()) {
          op.kind = SweepOp::resize;
          op.new_pages = 4 + rng() % 5;  // shrink to 4..8 pages, or grow back
        } else {
          op.kind = SweepOp::read;
          op.page = static_cast<std::uint32_t>(rng() % 8);
        }
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<std::string> runSweep(StoreEngine engine, const std::vector<SweepOp>& ops) {
  sim::Simulation sim{99};
  sim::CostModel cost;
  DiskStore store{100, cost, /*cache=*/8, engine};
  auto name = store.createSegment(8 * ra::kPageSize).value();
  std::vector<std::string> trace;
  sim.spawn("driver", [&](sim::Process& self) {
    for (const auto& op : ops) {
      switch (op.kind) {
        case SweepOp::write: {
          auto r = store.writePage(self, {name, op.page},
                                   Bytes(ra::kPageSize, static_cast<std::byte>(op.fill)));
          trace.push_back("w" + std::to_string(op.page) + ":" +
                          std::to_string(static_cast<int>(r.code())));
          break;
        }
        case SweepOp::prepare: {
          std::vector<PageUpdate> ups;
          ups.push_back(
              {{name, op.page}, Bytes(ra::kPageSize, static_cast<std::byte>(op.fill))});
          if (op.two_updates) {
            ups.push_back({{name, op.extra_page},
                           Bytes(ra::kPageSize, static_cast<std::byte>(op.fill ^ 0xff))});
          }
          auto r = store.prepare(self, op.txid, std::move(ups));
          trace.push_back("p" + std::to_string(op.txid) + ":" +
                          std::to_string(static_cast<int>(r.code())));
          break;
        }
        case SweepOp::decide_known:
        case SweepOp::decide_unknown: {
          auto r = op.commit ? store.commitPrepared(self, op.txid)
                             : store.abortPrepared(self, op.txid);
          trace.push_back((op.commit ? "c" : "a") + std::to_string(op.txid) + ":" +
                          std::to_string(static_cast<int>(r.code())));
          break;
        }
        case SweepOp::crash:
          store.loseVolatileState();
          trace.push_back("crash");
          break;
        case SweepOp::read: {
          Bytes buf(ra::kPageSize);
          auto r = test::readPageInto(store, self, {name, op.page}, buf);
          std::string t = "r" + std::to_string(op.page) + ":" +
                          std::to_string(static_cast<int>(r.code()));
          if (r.ok()) {
            t += r.value() ? ":1:" : ":0:";
            t += std::to_string(static_cast<int>(buf[0]));
          }
          trace.push_back(t);
          break;
        }
        case SweepOp::toggle_fault:
          store.setFaulty(!store.faulty());
          trace.push_back("fault");
          break;
        case SweepOp::resize: {
          auto r = store.resize(name, op.new_pages * ra::kPageSize);
          trace.push_back("z" + std::to_string(op.new_pages) + ":" +
                          std::to_string(static_cast<int>(r.code())));
          break;
        }
      }
    }
    // Final durable-state audit: reboot, then dump everything observable.
    store.setFaulty(false);
    store.loseVolatileState();
    std::string prepared = "prepared:";
    for (std::uint64_t txid : store.preparedTxids()) {
      prepared += std::to_string(txid) + ",";
      for (const auto& key : store.preparedKeys(txid)) {
        prepared += "p" + std::to_string(key.page) + ";";
      }
    }
    trace.push_back(prepared);
    auto info = store.stat(name);
    ASSERT_TRUE(info.ok());
    trace.push_back("len:" + std::to_string(info.value().length));
    for (std::uint32_t p = 0; p < info.value().pageCount(); ++p) {
      Bytes buf(ra::kPageSize);
      auto r = test::readPageInto(store, self, {name, p}, buf);
      ASSERT_TRUE(r.ok());
      trace.push_back("page" + std::to_string(p) + ":" + (r.value() ? "1:" : "0:") +
                      std::to_string(static_cast<int>(buf[0])));
    }
  });
  sim.run();
  return trace;
}

class EngineEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalenceSweep, FlatAndWalProduceIdenticalTraces) {
  const auto ops = makeSweep(GetParam(), 400);
  const auto flat_trace = runSweep(StoreEngine::flat, ops);
  const auto wal_trace = runSweep(StoreEngine::wal, ops);
  ASSERT_EQ(flat_trace.size(), wal_trace.size());
  for (std::size_t i = 0; i < flat_trace.size(); ++i) {
    EXPECT_EQ(flat_trace[i], wal_trace[i]) << "first divergence at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceSweep,
                         ::testing::Values(3, 1010, 777777));

// ---------------------------------------------------------------------------
// Crash-replay chaos matrix: random crashes with torn tails against a live
// flusher. Invariant: an acknowledged operation survives every reboot; an
// unacknowledged one either fully lands or fully vanishes; aborted and
// never-prepared data never appears.
// ---------------------------------------------------------------------------

class WalCrashReplaySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalCrashReplaySweep, AcknowledgedStateSurvivesRandomCrashes) {
  const std::uint64_t seed = GetParam();
  sim::Simulation sim{seed};
  sim::CostModel cost;
  DiskStore store{100, cost, /*cache=*/16, StoreEngine::wal};
  store.attachMetrics(sim.metrics(), "ds");
  store.startFlusher(sim);
  auto name = store.createSegment(8 * ra::kPageSize).value();
  constexpr std::uint32_t kPages = 8;

  // Per-page set of tags the page may legitimately hold. An acknowledged
  // write collapses it to one tag; an unacknowledged (crashed) write adds
  // its tag — torn-tail promotion may have persisted it anyway.
  std::vector<std::set<std::uint16_t>> possible(kPages, std::set<std::uint16_t>{0});
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::uint16_t next_tag = 1;
  std::uint64_t crashes = 0;

  sim.spawn("driver", [&](sim::Process& self) {
    struct PendingTx {
      bool definite = false;  // prepare was acknowledged
      std::vector<std::pair<std::uint32_t, std::uint16_t>> updates;
    };
    std::map<std::uint64_t, PendingTx> pending;
    std::uint64_t next_tx = 1;

    for (int step = 0; step < 240; ++step) {
      if (step < 200 && rng() % 6 == 0) {
        // Arm a crash that may land inside a force window or a write-back
        // sweep, sometimes persisting a prefix of the torn batch.
        store.setTornTailKeep(rng() % 3);
        const auto at = sim::usec(static_cast<std::int64_t>(1 + rng() % 4000));
        sim.schedule(at, [&store, &crashes] {
          ++crashes;
          store.loseVolatileState();
        });
      }
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {  // plain write
          const std::uint32_t p = static_cast<std::uint32_t>(rng() % kPages);
          const std::uint16_t tag = next_tag++;
          auto r = store.writePage(self, {name, p}, tagged(tag));
          if (r.ok()) {
            possible[p] = {tag};
          } else {
            ASSERT_EQ(r.code(), Errc::io) << r.error().toString();
            possible[p].insert(tag);
          }
          break;
        }
        case 3: {  // prepare
          const std::uint64_t txid = next_tx++;
          PendingTx tx;
          std::vector<PageUpdate> ups;
          const std::size_t n = 1 + rng() % 2;
          for (std::size_t u = 0; u < n; ++u) {
            const std::uint32_t p = static_cast<std::uint32_t>(rng() % kPages);
            const std::uint16_t tag = next_tag++;
            tx.updates.emplace_back(p, tag);
            ups.push_back({{name, p}, tagged(tag)});
          }
          auto r = store.prepare(self, txid, std::move(ups));
          if (r.ok()) {
            tx.definite = true;
          } else {
            ASSERT_EQ(r.code(), Errc::io) << r.error().toString();
          }
          pending[txid] = std::move(tx);
          break;
        }
        case 4: {  // decide a pending transaction; retry until acknowledged
          if (pending.empty()) break;
          auto it = pending.begin();
          std::advance(it, static_cast<long>(rng() % pending.size()));
          const bool commit = rng() % 2 == 0;
          for (;;) {
            auto r = commit ? store.commitPrepared(self, it->first)
                            : store.abortPrepared(self, it->first);
            if (r.ok()) break;
            ASSERT_EQ(r.code(), Errc::io) << r.error().toString();
          }
          if (commit) {
            for (const auto& [p, tag] : it->second.updates) {
              // A committed definite prepare lands for sure; a maybe-prepare
              // (its ack was lost in a crash) commits as a no-op when the
              // record vanished, so the tag is only a possibility.
              if (it->second.definite) {
                possible[p] = {tag};
              } else {
                possible[p].insert(tag);
              }
            }
          }
          pending.erase(it);
          break;
        }
        case 5: {  // read-check; the observation collapses any ambiguity
          const std::uint32_t p = static_cast<std::uint32_t>(rng() % kPages);
          Bytes buf(ra::kPageSize);
          auto r = test::readPageInto(store, self, {name, p}, buf);
          ASSERT_TRUE(r.ok()) << r.error().toString();
          const std::uint16_t tag = tagOf(buf);
          ASSERT_TRUE(possible[p].count(tag) != 0)
              << "page " << p << " holds impossible tag " << tag;
          possible[p] = {tag};
          break;
        }
        case 6: {  // explicit bounded sweep alongside the daemon flusher
          auto r = store.writeBackSome(self, 16);
          if (!r.ok()) {
            ASSERT_EQ(r.code(), Errc::io) << r.error().toString();
          }
          break;
        }
        default: {  // reboot-time replay charge
          auto r = store.recover(self);
          if (!r.ok()) {
            ASSERT_EQ(r.code(), Errc::io) << r.error().toString();
          }
          break;
        }
      }
    }

    // Let stragglers (armed crashes, flusher sweeps) land, then audit the
    // durable state after one final reboot.
    self.delay(sim::msec(200));
    store.loseVolatileState();
    ASSERT_TRUE(store.recover(self).ok());
    for (std::uint32_t p = 0; p < kPages; ++p) {
      Bytes buf(ra::kPageSize);
      ASSERT_TRUE(test::readPageInto(store, self, {name, p}, buf).ok());
      const std::uint16_t tag = tagOf(buf);
      EXPECT_TRUE(possible[p].count(tag) != 0)
          << "page " << p << " holds impossible tag " << tag << " after reboot";
    }
    // Undecided transactions whose prepare was acknowledged must still be
    // decidable after any number of crashes.
    for (const auto& [txid, tx] : pending) {
      if (tx.definite) {
        EXPECT_TRUE(store.hasPrepared(txid)) << "txid " << txid;
      }
    }
  });
  sim.run();
  EXPECT_GT(crashes, 0u) << "the sweep never crashed — weaken the schedule odds";
  EXPECT_GE(sim.metrics().counterValue("ds/wal/checkpoints"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalCrashReplaySweep, ::testing::Values(3, 1010, 777777));

}  // namespace
}  // namespace clouds::store
