#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace clouds::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(msec(30), [&] { order.push_back(3); });
  sim.schedule(msec(10), [&] { order.push_back(1); });
  sim.schedule(msec(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulation, EqualTimestampsRunInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(msec(5), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, EventsOfEveryKindAtOneTimestampRunInInsertionOrder) {
  // Calls, delay expiries, blockFor timeouts and wake()s all land at 5 ms,
  // inserted interleaved at 0 ms and at 5 ms itself; they must run in the
  // order they were inserted, whatever their kind.
  Simulation sim;
  std::vector<std::string> order;
  auto log = [&](std::string what) {
    EXPECT_EQ(sim.now(), msec(5)) << what;
    order.push_back(std::move(what));
  };
  Process* w = nullptr;
  sim.schedule(msec(5), [&] {  // seq 0
    log("call-1");
    w->wake();                                    // resume, inserted at 5 ms
    sim.schedule(kZero, [&] { log("call-3"); });  // call, inserted after it
  });
  sim.spawn("p", [&](Process& self) {
    self.delay(msec(5));  // resume, inserted at 0 ms
    log("delay-p");
    self.delay(kZero);  // resume, inserted at 5 ms after call-3
    log("delay0-p");
  });
  sim.spawn("q", [&](Process& self) {
    EXPECT_FALSE(self.blockFor(msec(5)));  // timer, inserted at 0 ms after p's delay
    log("timer-q");
  });
  w = &sim.spawn("w", [&](Process& self) {
    self.block();
    log("wake-w");
  });
  // A call inserted at 0 ms after all of the above.
  sim.schedule(kZero, [&] { sim.schedule(msec(5), [&] { log("call-2"); }); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"call-1", "delay-p", "timer-q", "call-2", "wake-w",
                                             "call-3", "delay0-p"}));

  // Zero-delay events queued at 10 ms while events queued earlier for
  // 10 ms are still pending: each waits behind every event queued before
  // it, whichever kind that one is.
  order.clear();
  auto at10 = [&](std::string what) {
    EXPECT_EQ(sim.now(), msec(10)) << what;
    order.push_back(std::move(what));
  };
  Process* v = nullptr;
  sim.schedule(msec(5), [&] {  // the first event for 10 ms
    at10("call-a");
    v->wake();                                      // resume, queued at 10 ms
    sim.schedule(kZero, [&] { at10("call-a0"); });  // call, after it
  });
  sim.spawn("s", [&](Process& self) {
    self.delay(msec(5));  // resume for 10 ms, queued at 5 ms after call-a
    at10("delay-s");
    self.delay(kZero);  // resume, queued at 10 ms after call-a0
    at10("delay0-s");
  });
  v = &sim.spawn("v", [&](Process& self) {
    self.block();
    at10("wake-v");
    sim.schedule(kZero, [&] { at10("call-v0"); });  // after call-b0
  });
  sim.schedule(kZero, [&] {  // at 5 ms: two calls for 10 ms, after delay-s
    sim.schedule(msec(5), [&] {
      at10("call-b");
      sim.schedule(kZero, [&] { at10("call-b0"); });  // after delay0-s
    });
    sim.schedule(msec(5), [&] { at10("call-c"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"call-a", "delay-s", "call-b", "call-c", "wake-v",
                                             "call-a0", "delay0-s", "call-b0", "call-v0"}));
}

TEST(Simulation, NestedScheduling) {
  Simulation sim;
  int hits = 0;
  sim.schedule(msec(1), [&] {
    ++hits;
    sim.schedule(msec(1), [&] {
      ++hits;
      sim.schedule(msec(1), [&] { ++hits; });
    });
  });
  sim.run();
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(sim.now(), msec(3));
}

TEST(Simulation, RunForStopsAtHorizon) {
  Simulation sim;
  int hits = 0;
  sim.schedule(msec(10), [&] { ++hits; });
  sim.schedule(msec(100), [&] { ++hits; });
  sim.runFor(msec(50));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sim.now(), msec(50));
  sim.run();
  EXPECT_EQ(hits, 2);
}

TEST(Simulation, StopHaltsExecution) {
  Simulation sim;
  int hits = 0;
  sim.schedule(msec(1), [&] {
    ++hits;
    sim.stop();
  });
  sim.schedule(msec(2), [&] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 1);
  sim.run();  // resumes after stop
  EXPECT_EQ(hits, 2);
}

TEST(Simulation, NegativeDelayRejected) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(msec(-1), [] {}), std::invalid_argument);
}

TEST(Simulation, NegativeProcessDurationsRejected) {
  Simulation sim;
  bool delay_threw = false;
  bool block_threw = false;
  sim.spawn("p", [&](Process& self) {
    try {
      self.delay(msec(-1));
    } catch (const std::invalid_argument&) {
      delay_threw = true;
    }
    try {
      (void)self.blockFor(msec(-1));
    } catch (const std::invalid_argument&) {
      block_threw = true;
    }
    self.delay(msec(1));  // and the process still runs normally
  });
  sim.run();
  EXPECT_TRUE(delay_threw);
  EXPECT_TRUE(block_threw);
  EXPECT_EQ(sim.now(), msec(1));
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

TEST(Simulation, RngIsSeedDeterministic) {
  Simulation a(123);
  Simulation b(123);
  Simulation c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a.rng()();
    EXPECT_EQ(va, b.rng()());
    diverged |= va != c.rng()();
  }
  EXPECT_TRUE(diverged);
}

TEST(Simulation, TraceDigestIsDeterministic) {
  auto runOnce = [](std::uint64_t seed) {
    Simulation sim(seed);
    for (int i = 0; i < 5; ++i) {
      sim.schedule(msec(i), [&sim, i] { sim.trace("node", "test", "event " + std::to_string(i)); });
    }
    sim.run();
    return sim.tracer().digest();
  };
  EXPECT_EQ(runOnce(1), runOnce(1));
  EXPECT_EQ(runOnce(1), runOnce(2));  // trace content independent of unused rng
}

TEST(Trace, DigestWithoutEntries) {
  Simulation sim;
  sim.tracer().setKeepEntries(false);
  sim.trace("a", "b", "c");
  EXPECT_TRUE(sim.tracer().entries().empty());
  EXPECT_EQ(sim.tracer().count(), 1u);
  const auto d1 = sim.tracer().digest();
  sim.trace("a", "b", "c2");
  EXPECT_NE(sim.tracer().digest(), d1);
}

}  // namespace
}  // namespace clouds::sim
