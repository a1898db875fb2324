// Segment locks and distributed semaphores (paper §3.2, §4.2).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "testbed.hpp"
#include "wire.hpp"

namespace clouds::test {
namespace {

using dsm::LockMode;
using ra::kPageSize;

struct SyncFixture : Testbed {
  Sysname seg;
  SyncFixture() : Testbed(2, 1) { seg = data[0].store->createSegment(kPageSize).value(); }
};

TEST(DsmLocks, ExclusiveExcludesAndUnlockAllReleases) {
  SyncFixture f;
  std::vector<int> order;
  f.sim.spawn("t1", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::exclusive, 1).ok());
    order.push_back(1);
    self.delay(sim::msec(50));
    order.push_back(2);
    ASSERT_TRUE(f.compute[0].dsm->unlockAll(self, f.data[0].node->id(), 1).ok());
  });
  f.sim.spawn("t2", [&](sim::Process& self) {
    self.delay(sim::msec(10));
    ASSERT_TRUE(f.compute[1].dsm->lock(self, f.seg, LockMode::exclusive, 2).ok());
    order.push_back(3);
    ASSERT_TRUE(f.compute[1].dsm->unlockAll(self, f.data[0].node->id(), 2).ok());
  });
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DsmLocks, SharedHoldersCoexist) {
  SyncFixture f;
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 2; ++i) {
    f.sim.spawn("r" + std::to_string(i), [&, i](sim::Process& self) {
      ASSERT_TRUE(
          f.compute[static_cast<std::size_t>(i)].dsm->lock(self, f.seg, LockMode::shared,
                                                           static_cast<std::uint64_t>(i + 1))
              .ok());
      ++concurrent;
      max_concurrent = std::max(max_concurrent, concurrent);
      self.delay(sim::msec(30));
      --concurrent;
      ASSERT_TRUE(f.compute[static_cast<std::size_t>(i)]
                      .dsm->unlockAll(self, f.data[0].node->id(), static_cast<std::uint64_t>(i + 1))
                      .ok());
    });
  }
  f.sim.run();
  EXPECT_EQ(max_concurrent, 2);
}

TEST(DsmLocks, WriterExcludedByReaderUntilRelease) {
  SyncFixture f;
  sim::TimePoint writer_got = sim::kZero;
  f.sim.spawn("reader", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::shared, 1).ok());
    self.delay(sim::msec(60));
    ASSERT_TRUE(f.compute[0].dsm->unlockAll(self, f.data[0].node->id(), 1).ok());
  });
  f.sim.spawn("writer", [&](sim::Process& self) {
    self.delay(sim::msec(5));
    ASSERT_TRUE(f.compute[1].dsm->lock(self, f.seg, LockMode::exclusive, 2).ok());
    writer_got = f.sim.now();
  });
  f.sim.run();
  EXPECT_GE(writer_got, sim::msec(60));
}

TEST(DsmLocks, SharedToExclusiveUpgrade) {
  SyncFixture f;
  f.sim.spawn("t", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::shared, 1).ok());
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::exclusive, 1).ok());
    // Still exclusive: another owner must wait (and hit the deadlock bound).
    auto r = f.compute[1].dsm->lock(self, f.seg, LockMode::exclusive, 2);
    EXPECT_EQ(r.code(), Errc::deadlock);
  });
  f.sim.run();
}

TEST(DsmLocks, ConflictTimesOutAsDeadlock) {
  SyncFixture f;
  Errc code = Errc::ok;
  f.sim.spawn("holder", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::exclusive, 1).ok());
    self.delay(sim::sec(3));  // hold past the wait bound
    ASSERT_TRUE(f.compute[0].dsm->unlockAll(self, f.data[0].node->id(), 1).ok());
  });
  f.sim.spawn("loser", [&](sim::Process& self) {
    self.delay(sim::msec(5));
    code = f.compute[1].dsm->lock(self, f.seg, LockMode::exclusive, 2).code();
  });
  f.sim.run();
  EXPECT_EQ(code, Errc::deadlock);
}

TEST(DsmLocks, ReentrantAcquireIsIdempotent) {
  SyncFixture f;
  f.sim.spawn("t", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::exclusive, 1).ok());
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::exclusive, 1).ok());
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::shared, 1).ok());
    ASSERT_TRUE(f.compute[0].dsm->unlockAll(self, f.data[0].node->id(), 1).ok());
    // Fully released: another owner acquires immediately.
    ASSERT_TRUE(f.compute[1].dsm->lock(self, f.seg, LockMode::exclusive, 2).ok());
  });
  f.sim.run();
}

TEST(DsmSemaphores, CrossNodeProducerConsumer) {
  SyncFixture f;
  std::vector<int> consumed;
  std::uint64_t sem = 0;
  f.sim.spawn("setup", [&](sim::Process& self) {
    auto r = f.compute[0].dsm->semCreate(self, f.data[0].node->id(), 0);
    ASSERT_TRUE(r.ok());
    sem = r.value();
    f.sim.spawn("consumer", [&](sim::Process& c) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(f.compute[1].dsm->semP(c, sem).ok());
        consumed.push_back(i);
      }
    });
    f.sim.spawn("producer", [&](sim::Process& p) {
      for (int i = 0; i < 3; ++i) {
        p.delay(sim::msec(20));
        ASSERT_TRUE(f.compute[0].dsm->semV(p, sem).ok());
      }
    });
  });
  f.sim.run();
  EXPECT_EQ(consumed.size(), 3u);
}

TEST(DsmSemaphores, BlockedPIsNeverReExecutedByARetransmission) {
  // A P() blocks at the server for 8 s while its client retransmits every
  // 2 s, past the reply cache's 5 s TTL. The retransmissions must not run
  // the P a second time: a ghost P would take the second V, and the P at
  // 10 s would then wait out the server's cap instead of passing at once.
  SyncFixture f;
  std::uint64_t sem = 0;
  bool first_ok = false;
  Result<void> late = makeError(Errc::timeout, "not run");
  sim::Duration late_wait = sim::kZero;
  f.sim.spawn("setup", [&](sim::Process& self) {
    auto r = f.compute[0].dsm->semCreate(self, f.data[0].node->id(), 0);
    ASSERT_TRUE(r.ok());
    sem = r.value();
    f.sim.spawn("waiter",
                [&](sim::Process& p) { first_ok = f.compute[0].dsm->semP(p, sem).ok(); });
    f.sim.spawn("poster", [&](sim::Process& p) {
      p.delay(sim::sec(8) - f.sim.now());
      ASSERT_TRUE(f.compute[1].dsm->semV(p, sem).ok());
      p.delay(sim::sec(9) - f.sim.now());
      ASSERT_TRUE(f.compute[1].dsm->semV(p, sem).ok());
    });
    f.sim.spawn("late", [&](sim::Process& p) {
      p.delay(sim::sec(10) - f.sim.now());
      const sim::TimePoint t0 = f.sim.now();
      late = f.compute[0].dsm->semP(p, sem);
      late_wait = f.sim.now() - t0;
    });
  });
  f.sim.run();
  EXPECT_TRUE(first_ok);
  EXPECT_TRUE(late.ok()) << late.error().message;
  EXPECT_LT(late_wait, sim::sec(1));
}

TEST(DsmSemaphores, UnknownSemaphoreFails) {
  SyncFixture f;
  f.sim.spawn("t", [&](sim::Process& self) {
    const std::uint64_t bogus = (static_cast<std::uint64_t>(f.data[0].node->id()) << 32) | 9999;
    EXPECT_EQ(f.compute[0].dsm->semV(self, bogus).code(), Errc::not_found);
  });
  f.sim.run();
}

struct DocumentedRequest {
  dsm::Request request;
  Bytes wire;
};

// One request of every op of both DSM services, with fixed field values,
// and its documented layout. The update lists are not empty: a request
// that ends after a zero count is complete.
std::vector<DocumentedRequest> everyRequest(const Sysname& seg) {
  using dsm::Op;
  const ra::PageKey key{seg, 3};
  const ra::PageKey updated{seg, 5};
  // The codec carries an image of any length; a page is 8 KiB.
  const Bytes image{std::byte{0xA1}, std::byte{0xA2}, std::byte{0xA3}};
  const std::vector<store::PageUpdate> updates{{updated, SharedBytes(image)}};
  const std::uint64_t owner = 0x0102030405060708;
  const std::uint64_t sem = 0x0000006400000007;
  const std::uint64_t txid = 0x1112131415161718;
  return {
      {{.op = Op::read_page, .key = key}, Wire().u8(1).pageKey(key).bytes},
      {{.op = Op::write_page, .key = key}, Wire().u8(2).pageKey(key).bytes},
      {{.op = Op::create_segment, .length = 3 * kPageSize, .zero_fill = true},
       Wire().u8(4).u64(3 * kPageSize).u8(1).bytes},
      {{.op = Op::stat_segment, .segment = seg}, Wire().u8(6).sysname(seg).bytes},
      {{.op = Op::destroy_segment, .segment = seg}, Wire().u8(7).sysname(seg).bytes},
      {{.op = Op::write_back_batch, .drop = true, .updates = updates},
       Wire().u8(8).u8(1).u32(1).pageKey(updated).image(image).bytes},
      {{.op = Op::invalidate, .key = key, .version = 9}, Wire().u8(20).pageKey(key).u64(9).bytes},
      {{.op = Op::degrade, .key = key, .version = 9}, Wire().u8(21).pageKey(key).u64(9).bytes},
      {{.op = Op::lock, .segment = seg, .mode = LockMode::exclusive, .owner = owner},
       Wire().u8(30).sysname(seg).u8(1).u64(owner).bytes},
      {{.op = Op::unlock_all, .owner = owner}, Wire().u8(31).u64(owner).bytes},
      {{.op = Op::sem_create, .initial = -2}, Wire().u8(32).u64(~std::uint64_t{1}).bytes},
      {{.op = Op::sem_p, .sem = sem}, Wire().u8(33).u64(sem).bytes},
      {{.op = Op::sem_v, .sem = sem}, Wire().u8(34).u64(sem).bytes},
      {{.op = Op::tx_prepare, .txid = txid, .updates = updates},
       Wire().u8(40).u64(txid).u32(1).pageKey(updated).image(image).bytes},
      {{.op = Op::tx_commit, .txid = txid}, Wire().u8(41).u64(txid).bytes},
      {{.op = Op::tx_abort, .txid = txid}, Wire().u8(42).u64(txid).bytes},
  };
}

bool isCallback(dsm::Op op) { return op == dsm::Op::invalidate || op == dsm::Op::degrade; }

// The codec writes every op's documented layout, and reads back what it
// wrote.
TEST(DsmCodec, EveryOpEncodesItsDocumentedLayout) {
  const Sysname seg(0x2122232425262728, 0x3132333435363738);
  // The literal bytes of one request, as a reader of the tables would.
  EXPECT_EQ(everyRequest(seg)[9].wire,
            (Bytes{std::byte{31}, std::byte{8}, std::byte{7}, std::byte{6}, std::byte{5},
                   std::byte{4}, std::byte{3}, std::byte{2}, std::byte{1}}));
  std::set<dsm::Op> ops;
  for (const auto& [request, wire] : everyRequest(seg)) {
    const int op = static_cast<int>(request.op);
    const Message encoded = dsm::encodeRequest(request);
    EXPECT_EQ(encoded.flatten(), wire) << "op " << op;
    auto decoded = dsm::decodeRequest(encoded);
    ASSERT_TRUE(decoded.ok()) << "op " << op;
    EXPECT_EQ(dsm::encodeRequest(decoded.value()).flatten(), wire) << "op " << op;
    ops.insert(request.op);
  }
  EXPECT_EQ(ops.size(), 16u);  // the 14 ops of port 2 and the 2 of port 11
}

// Every "<node>/dsm/..." counter, one `"name":value` entry per line.
std::string dsmCounters(const sim::MetricsRegistry& metrics) {
  const std::string json = metrics.toJson();
  const std::size_t begin = json.find('{', json.find("\"counters\"")) + 1;
  std::stringstream entries(json.substr(begin, json.find('}', begin) - begin));
  std::string out;
  for (std::string entry; std::getline(entries, entry, ',');) {
    if (entry.find("/dsm/") != std::string::npos) out += entry + '\n';
  }
  return out;
}

// DsmServer::serveDsm and DsmClientPartition::serveCallback are the entries
// for wire input to the two DSM services. Every request cut short anywhere,
// a byte that names no op, and a whole request of the other service's op
// answer bad_argument, and none of them touches a counter, a lock or a
// semaphore.
TEST(DsmDispatch, MalformedRequestsAnswerBadArgumentAndChangeNothing) {
  SyncFixture f;
  f.sim.spawn("t", [&](sim::Process& self) {
    const net::NodeId home = f.data[0].node->id();
    ASSERT_TRUE(f.compute[0].dsm->lock(self, f.seg, LockMode::exclusive, 1).ok());
    auto sem = f.compute[0].dsm->semCreate(self, home, 1);
    ASSERT_TRUE(sem.ok());
    const std::string counters = dsmCounters(f.sim.metrics());
    ASSERT_NE(counters.find("data0/dsm/page_reads"), std::string::npos);

    // Port 11 (the compute server's callbacks) or port 2 (the data server).
    auto serve = [&](bool port11, const Bytes& request) {
      return (port11 ? f.compute[0].dsm->serveCallback(request)
                     : f.data[0].server->serveDsm(self, f.compute[0].node->id(), request))
          .flatten();
    };
    const Bytes bad_argument{static_cast<std::byte>(Errc::bad_argument)};
    for (const auto& [request, wire] : everyRequest(f.seg)) {
      const int op = static_cast<int>(request.op);
      const bool callback = isCallback(request.op);
      for (std::size_t n = 0; n < wire.size(); ++n) {
        ASSERT_EQ(serve(callback, Bytes(wire.begin(), wire.begin() + n)), bad_argument)
            << "op " << op << " cut to " << n << " bytes";
      }
      EXPECT_EQ(serve(!callback, wire), bad_argument) << "op " << op << " on the other port";
    }
    for (const int op : {5, 99}) {  // the retired adopt(5), and no op at all
      EXPECT_EQ(serve(false, Bytes{std::byte(op)}), bad_argument) << "op " << op;
      EXPECT_EQ(serve(true, Bytes{std::byte(op)}), bad_argument) << "op " << op;
    }
    EXPECT_EQ(dsmCounters(f.sim.metrics()), counters);

    // The lock is still owner 1's: owner 2 waits out the bound.
    EXPECT_EQ(f.compute[1].dsm->lock(self, f.seg, LockMode::exclusive, 2).code(),
              Errc::deadlock);
    // The semaphore still counts exactly 1: one P passes at once, the next
    // waits out the server's cap.
    const sim::TimePoint t0 = f.sim.now();
    ASSERT_TRUE(f.compute[0].dsm->semP(self, sem.value()).ok());
    EXPECT_LT(f.sim.now() - t0, sim::sec(1));
    EXPECT_EQ(f.compute[0].dsm->semP(self, sem.value()).code(), Errc::timeout);
    // No semaphore was created: the next id follows the first.
    auto next = f.compute[0].dsm->semCreate(self, home, 0);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.value(), sem.value() + 1);
  });
  f.sim.run();
}

}  // namespace
}  // namespace clouds::test
