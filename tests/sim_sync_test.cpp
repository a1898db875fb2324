#include "sim/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace clouds::sim {
namespace {

TEST(SimMutex, ProvidesMutualExclusion) {
  Simulation sim;
  SimMutex mu;
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn("p" + std::to_string(i), [&](Process& self) {
      SimLockGuard g(mu, self);
      ++inside;
      max_inside = std::max(max_inside, inside);
      self.delay(msec(10));
      --inside;
    });
  }
  sim.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(sim.now(), msec(40));  // fully serialized
}

TEST(SimMutex, FifoOrder) {
  Simulation sim;
  SimMutex mu;
  std::vector<int> order;
  sim.spawn("holder", [&](Process& self) {
    mu.lock(self);
    self.delay(msec(10));
    mu.unlock();
  });
  for (int i = 0; i < 3; ++i) {
    sim.spawn("w" + std::to_string(i), [&, i](Process& self) {
      self.delay(msec(1 + i));  // arrive in index order
      mu.lock(self);
      order.push_back(i);
      mu.unlock();
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimMutex, WaiterKilledInTheQueueDoesNotSwallowTheHandoff) {
  // A holds the mutex, B and C queue behind it, B is killed while queued,
  // then A unlocks. The unlock's notification must reach C: a dead waiter
  // left in the queue would absorb it and strand C on a free mutex.
  Simulation sim;
  SimMutex mu;
  bool c_acquired = false;
  sim.spawn("A", [&](Process& self) {
    mu.lock(self);
    self.delay(msec(10));
    mu.unlock();
  });
  Process& b = sim.spawn("B", [&](Process& self) {
    self.delay(msec(1));
    SimLockGuard g(mu, self);
  });
  sim.spawn("C", [&](Process& self) {
    self.delay(msec(2));
    SimLockGuard g(mu, self);
    c_acquired = true;
  });
  sim.schedule(msec(5), [&] { b.kill(); });
  sim.run();
  EXPECT_TRUE(c_acquired);
  EXPECT_FALSE(mu.locked());
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

TEST(SimMutex, WaiterKilledAfterTheHandoffPassesItOn) {
  // One event kills the holder A and then the first waiter B, as a node
  // crash kills its processes in turn. A unwinds first and its unlock hands
  // the mutex to B, whose kill is already queued; B then unwinds without
  // taking it, so the handoff must go on to C.
  Simulation sim;
  SimMutex mu;
  bool c_acquired = false;
  Process& a = sim.spawn("A", [&](Process& self) {
    SimLockGuard g(mu, self);
    self.block();  // until killed: no resume of its own is queued
  });
  Process& b = sim.spawn("B", [&](Process& self) {
    self.delay(msec(1));
    SimLockGuard g(mu, self);
  });
  sim.spawn("C", [&](Process& self) {
    self.delay(msec(2));
    SimLockGuard g(mu, self);
    c_acquired = true;
  });
  sim.schedule(msec(5), [&] {
    a.kill();
    b.kill();
  });
  sim.run();
  EXPECT_TRUE(c_acquired);
  EXPECT_FALSE(mu.locked());
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

TEST(SimCondition, BroadcastToAKilledWaiterWakesNoLaterWaiter) {
  // notifyAll wakes the waiters queued when it runs; one of them dying
  // before it resumes gives nothing to a waiter that queued afterwards.
  Simulation sim;
  SimMutex mu;
  SimCondition cv;
  int b_wakes = 0;
  bool c_notified = true;
  Process& a = sim.spawn("A", [&](Process& self) {
    mu.lock(self);
    cv.wait(self, mu);
    mu.unlock();
  });
  sim.spawn("B", [&](Process& self) {
    self.delay(msec(1));
    SimLockGuard g(mu, self);
    cv.wait(self, mu);
    ++b_wakes;
  });
  sim.schedule(msec(5), [&] {
    cv.notifyAll();
    a.kill();
  });
  sim.spawn("C", [&](Process& self) {
    self.delay(msec(5));  // queues after the broadcast, before A unwinds
    SimLockGuard g(mu, self);
    c_notified = cv.waitFor(self, mu, msec(10));
  });
  sim.run();
  EXPECT_EQ(b_wakes, 1);
  EXPECT_FALSE(c_notified);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

TEST(WaitQueue, WaiterKilledInWaitForLeavesTheQueue) {
  Simulation sim;
  WaitQueue q;
  bool c_notified = false;
  Process& b = sim.spawn("B", [&](Process& self) { (void)q.waitFor(self, msec(100)); });
  sim.spawn("C", [&](Process& self) {
    self.delay(msec(1));
    c_notified = q.waitFor(self, msec(100));
  });
  sim.schedule(msec(5), [&] { b.kill(); });
  sim.schedule(msec(10), [&] {
    EXPECT_FALSE(q.empty());  // C is still queued, B is gone
    q.notifyOne();
  });
  sim.run();
  EXPECT_TRUE(c_notified);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(sim.now(), msec(101));  // B's and C's stale timers still drain
}

TEST(SimMutex, LockForTimesOut) {
  Simulation sim;
  SimMutex mu;
  bool got = true;
  sim.spawn("holder", [&](Process& self) {
    mu.lock(self);
    self.delay(msec(100));
    mu.unlock();
  });
  sim.spawn("waiter", [&](Process& self) {
    self.delay(msec(1));
    got = mu.lockFor(self, msec(20));
  });
  sim.run();
  EXPECT_FALSE(got);
}

TEST(SimMutex, LockForSucceedsWhenReleasedInTime) {
  Simulation sim;
  SimMutex mu;
  bool got = false;
  sim.spawn("holder", [&](Process& self) {
    mu.lock(self);
    self.delay(msec(10));
    mu.unlock();
  });
  sim.spawn("waiter", [&](Process& self) {
    self.delay(msec(1));
    got = mu.lockFor(self, msec(60));
    if (got) mu.unlock();
  });
  sim.run();
  EXPECT_TRUE(got);
}

TEST(SimSemaphore, ProducerConsumer) {
  Simulation sim;
  SimSemaphore items(0);
  std::vector<int> consumed;
  sim.spawn("consumer", [&](Process& self) {
    for (int i = 0; i < 5; ++i) {
      items.acquire(self);
      consumed.push_back(i);
    }
  });
  sim.spawn("producer", [&](Process& self) {
    for (int i = 0; i < 5; ++i) {
      self.delay(msec(2));
      items.release();
    }
  });
  sim.run();
  EXPECT_EQ(consumed.size(), 5u);
  EXPECT_EQ(items.count(), 0);
}

TEST(SimSemaphore, BoundedConcurrency) {
  Simulation sim;
  SimSemaphore slots(2);
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn("p" + std::to_string(i), [&](Process& self) {
      slots.acquire(self);
      ++inside;
      max_inside = std::max(max_inside, inside);
      self.delay(msec(5));
      --inside;
      slots.release();
    });
  }
  sim.run();
  EXPECT_EQ(max_inside, 2);
  EXPECT_EQ(sim.now(), msec(15));
}

TEST(SimSemaphore, AcquireForTimesOut) {
  Simulation sim;
  SimSemaphore sem(0);
  bool got = true;
  sim.spawn("p", [&](Process& self) { got = sem.acquireFor(self, msec(15)); });
  sim.run();
  EXPECT_FALSE(got);
}

TEST(SimCondition, NotifyOneWakesExactlyOne) {
  Simulation sim;
  SimMutex mu;
  SimCondition cv;
  int ready = 0;
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn("waiter" + std::to_string(i), [&](Process& self) {
      mu.lock(self);
      ++ready;
      while (woken == 0) cv.wait(self, mu);
      --woken;
      mu.unlock();
    });
  }
  sim.spawn("signaler", [&](Process& self) {
    self.delay(msec(5));
    mu.lock(self);
    woken = 1;
    cv.notifyOne();
    mu.unlock();
  });
  sim.runFor(msec(100));
  EXPECT_EQ(ready, 3);
  EXPECT_EQ(woken, 0);
  EXPECT_EQ(sim.liveProcessCount(), 2u);  // two still waiting
}

TEST(SimCondition, NotifyAllWakesEveryone) {
  Simulation sim;
  SimMutex mu;
  SimCondition cv;
  bool go = false;
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    sim.spawn("waiter" + std::to_string(i), [&](Process& self) {
      mu.lock(self);
      while (!go) cv.wait(self, mu);
      ++done;
      mu.unlock();
    });
  }
  sim.spawn("signaler", [&](Process& self) {
    self.delay(msec(5));
    mu.lock(self);
    go = true;
    cv.notifyAll();
    mu.unlock();
  });
  sim.run();
  EXPECT_EQ(done, 4);
}

TEST(WaitQueue, TimeoutRemovesWaiter) {
  Simulation sim;
  WaitQueue q;
  bool notified = true;
  sim.spawn("p", [&](Process& self) { notified = q.waitFor(self, msec(10)); });
  sim.run();
  EXPECT_FALSE(notified);
  EXPECT_TRUE(q.empty());
}

TEST(WaitQueue, NotifyBeforeTimeoutWins) {
  Simulation sim;
  WaitQueue q;
  bool notified = false;
  sim.spawn("p", [&](Process& self) { notified = q.waitFor(self, msec(50)); });
  sim.schedule(msec(5), [&] { q.notifyOne(); });
  sim.run();
  EXPECT_TRUE(notified);
}

}  // namespace
}  // namespace clouds::sim
