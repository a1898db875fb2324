// Segment locks and distributed semaphores (paper §3.2, §4.2).
#include <gtest/gtest.h>

#include <sstream>

#include "testbed.hpp"

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
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::exclusive, 1).ok());
    order.push_back(1);
    self.delay(sim::msec(50));
    order.push_back(2);
    ASSERT_TRUE(f.compute[0].sync->unlockAll(self, f.data[0].node->id(), 1).ok());
  });
  f.sim.spawn("t2", [&](sim::Process& self) {
    self.delay(sim::msec(10));
    ASSERT_TRUE(f.compute[1].sync->lock(self, f.seg, LockMode::exclusive, 2).ok());
    order.push_back(3);
    ASSERT_TRUE(f.compute[1].sync->unlockAll(self, f.data[0].node->id(), 2).ok());
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
          f.compute[static_cast<std::size_t>(i)].sync->lock(self, f.seg, LockMode::shared,
                                                            static_cast<std::uint64_t>(i + 1))
              .ok());
      ++concurrent;
      max_concurrent = std::max(max_concurrent, concurrent);
      self.delay(sim::msec(30));
      --concurrent;
      ASSERT_TRUE(f.compute[static_cast<std::size_t>(i)]
                      .sync->unlockAll(self, f.data[0].node->id(), static_cast<std::uint64_t>(i + 1))
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
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::shared, 1).ok());
    self.delay(sim::msec(60));
    ASSERT_TRUE(f.compute[0].sync->unlockAll(self, f.data[0].node->id(), 1).ok());
  });
  f.sim.spawn("writer", [&](sim::Process& self) {
    self.delay(sim::msec(5));
    ASSERT_TRUE(f.compute[1].sync->lock(self, f.seg, LockMode::exclusive, 2).ok());
    writer_got = f.sim.now();
  });
  f.sim.run();
  EXPECT_GE(writer_got, sim::msec(60));
}

TEST(DsmLocks, SharedToExclusiveUpgrade) {
  SyncFixture f;
  f.sim.spawn("t", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::shared, 1).ok());
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::exclusive, 1).ok());
    // Still exclusive: another owner must wait (and hit the deadlock bound).
    auto r = f.compute[1].sync->lock(self, f.seg, LockMode::exclusive, 2);
    EXPECT_EQ(r.code(), Errc::deadlock);
  });
  f.sim.run();
}

TEST(DsmLocks, ConflictTimesOutAsDeadlock) {
  SyncFixture f;
  Errc code = Errc::ok;
  f.sim.spawn("holder", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::exclusive, 1).ok());
    self.delay(sim::sec(3));  // hold past the wait bound
    ASSERT_TRUE(f.compute[0].sync->unlockAll(self, f.data[0].node->id(), 1).ok());
  });
  f.sim.spawn("loser", [&](sim::Process& self) {
    self.delay(sim::msec(5));
    code = f.compute[1].sync->lock(self, f.seg, LockMode::exclusive, 2).code();
  });
  f.sim.run();
  EXPECT_EQ(code, Errc::deadlock);
}

TEST(DsmLocks, ReentrantAcquireIsIdempotent) {
  SyncFixture f;
  f.sim.spawn("t", [&](sim::Process& self) {
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::exclusive, 1).ok());
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::exclusive, 1).ok());
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::shared, 1).ok());
    ASSERT_TRUE(f.compute[0].sync->unlockAll(self, f.data[0].node->id(), 1).ok());
    // Fully released: another owner acquires immediately.
    ASSERT_TRUE(f.compute[1].sync->lock(self, f.seg, LockMode::exclusive, 2).ok());
  });
  f.sim.run();
}

TEST(DsmSemaphores, CrossNodeProducerConsumer) {
  SyncFixture f;
  std::vector<int> consumed;
  std::uint64_t sem = 0;
  f.sim.spawn("setup", [&](sim::Process& self) {
    auto r = f.compute[0].sync->semCreate(self, f.data[0].node->id(), 0);
    ASSERT_TRUE(r.ok());
    sem = r.value();
    f.sim.spawn("consumer", [&](sim::Process& c) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(f.compute[1].sync->semP(c, sem).ok());
        consumed.push_back(i);
      }
    });
    f.sim.spawn("producer", [&](sim::Process& p) {
      for (int i = 0; i < 3; ++i) {
        p.delay(sim::msec(20));
        ASSERT_TRUE(f.compute[0].sync->semV(p, sem).ok());
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
    auto r = f.compute[0].sync->semCreate(self, f.data[0].node->id(), 0);
    ASSERT_TRUE(r.ok());
    sem = r.value();
    f.sim.spawn("waiter",
                [&](sim::Process& p) { first_ok = f.compute[0].sync->semP(p, sem).ok(); });
    f.sim.spawn("poster", [&](sim::Process& p) {
      p.delay(sim::sec(8) - f.sim.now());
      ASSERT_TRUE(f.compute[1].sync->semV(p, sem).ok());
      p.delay(sim::sec(9) - f.sim.now());
      ASSERT_TRUE(f.compute[1].sync->semV(p, sem).ok());
    });
    f.sim.spawn("late", [&](sim::Process& p) {
      p.delay(sim::sec(10) - f.sim.now());
      const sim::TimePoint t0 = f.sim.now();
      late = f.compute[0].sync->semP(p, sem);
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
    EXPECT_EQ(f.compute[0].sync->semV(self, bogus).code(), Errc::not_found);
  });
  f.sim.run();
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

// DsmServer::serveDsm is the one entry for wire input to a data server.
// Every client->server op cut short after its op byte, an unknown op and a
// callback op answer bad_argument, and none of them touches a counter, a
// lock or a semaphore.
TEST(DsmDispatch, MalformedRequestsAnswerBadArgumentAndChangeNothing) {
  SyncFixture f;
  f.sim.spawn("t", [&](sim::Process& self) {
    const net::NodeId home = f.data[0].node->id();
    ASSERT_TRUE(f.compute[0].sync->lock(self, f.seg, LockMode::exclusive, 1).ok());
    auto sem = f.compute[0].sync->semCreate(self, home, 1);
    ASSERT_TRUE(sem.ok());
    const std::string counters = dsmCounters(f.sim.metrics());
    ASSERT_NE(counters.find("data0/dsm/page_reads"), std::string::npos);

    for (const int op : {1, 2, 4, 5, 6, 7, 8, 30, 31, 32, 33, 34, 40, 41, 42, 99, 20}) {
      const Bytes reply =
          f.data[0].server->serveDsm(self, f.compute[0].node->id(), Bytes{std::byte(op)})
              .flatten();
      ASSERT_EQ(reply.size(), 1u) << "op " << op;
      EXPECT_EQ(static_cast<Errc>(reply[0]), Errc::bad_argument) << "op " << op;
    }
    EXPECT_EQ(dsmCounters(f.sim.metrics()), counters);

    // The lock is still owner 1's: owner 2 waits out the bound.
    EXPECT_EQ(f.compute[1].sync->lock(self, f.seg, LockMode::exclusive, 2).code(),
              Errc::deadlock);
    // The semaphore still counts exactly 1: one P passes at once, the next
    // waits out the server's cap.
    const sim::TimePoint t0 = f.sim.now();
    ASSERT_TRUE(f.compute[0].sync->semP(self, sem.value()).ok());
    EXPECT_LT(f.sim.now() - t0, sim::sec(1));
    EXPECT_EQ(f.compute[0].sync->semP(self, sem.value()).code(), Errc::timeout);
    // No semaphore was created: the next id follows the first.
    auto next = f.compute[0].sync->semCreate(self, home, 0);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(next.value(), sem.value() + 1);
  });
  f.sim.run();
}

}  // namespace
}  // namespace clouds::test
