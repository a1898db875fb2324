#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace clouds::sim {
namespace {

TEST(Process, DelayAdvancesVirtualTime) {
  Simulation sim;
  TimePoint observed = kZero;
  Process* p = nullptr;
  p = &sim.spawn("worker", [&] {
    p->delay(msec(5));
    p->delay(msec(7));
    observed = sim.now();
  });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_EQ(observed, msec(12));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::string> log;
  Process* a = nullptr;
  Process* b = nullptr;
  a = &sim.spawn("a", [&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("a" + std::to_string(i));
      a->delay(msec(10));
    }
  });
  b = &sim.spawn("b", [&] {
    b->delay(msec(5));
    for (int i = 0; i < 3; ++i) {
      log.push_back("b" + std::to_string(i));
      b->delay(msec(10));
    }
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, BlockAndWake) {
  Simulation sim;
  bool produced = false;
  bool consumed = false;
  Process* consumer = nullptr;
  consumer = &sim.spawn("consumer", [&] {
    while (!produced) consumer->block();
    consumed = true;
  });
  sim.spawn("producer", [&] {
    auto& self = *consumer;  // wake target
    produced = true;
    self.wake();
  });
  sim.run();
  EXPECT_TRUE(consumed);
}

TEST(Process, BlockForTimesOut) {
  Simulation sim;
  bool woken = true;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] { woken = p->blockFor(msec(25)); });
  sim.run();
  EXPECT_FALSE(woken);
  EXPECT_EQ(sim.now(), msec(25));
}

TEST(Process, BlockForWokenBeforeTimeout) {
  Simulation sim;
  bool woken = false;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] { woken = p->blockFor(msec(100)); });
  sim.schedule(msec(10), [&] { p->wake(); });
  sim.run();
  EXPECT_TRUE(woken);
  // The stale timeout event still drains the clock to t=100 as a no-op.
  EXPECT_EQ(sim.now(), msec(100));
}

TEST(Process, StaleTimeoutDoesNotFireAfterRewait) {
  // A process that times out once and then blocks again must not be woken
  // by remnants of the first blockFor.
  Simulation sim;
  int wakes = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    (void)p->blockFor(msec(10));  // times out at t=10
    if (p->blockFor(msec(50))) ++wakes;
  });
  sim.schedule(msec(30), [&] { p->wake(); });
  sim.run();
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(sim.now(), msec(60));  // stale timer drains as a no-op
}

TEST(Process, WakeOnRunnableProcessIsNoop) {
  Simulation sim;
  int count = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    ++count;
    p->delay(msec(1));
    ++count;
  });
  sim.schedule(kZero, [&] { p->wake(); });  // p is ready/delayed, not blocked
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Process, KillUnwindsRaii) {
  Simulation sim;
  bool cleaned = false;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("victim", [&] {
    struct Raii {
      bool& flag;
      ~Raii() { flag = true; }
    } raii{cleaned};
    p->block();  // never woken normally
    after = true;
  });
  sim.schedule(msec(5), [&] { p->kill(); });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
}

TEST(Process, KillBeforeFirstRunSkipsBody) {
  Simulation sim;
  bool ran = false;
  auto& p = sim.spawn("never", [&] { ran = true; });
  p.kill();
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_FALSE(ran);
}

TEST(Process, SpawnFromInsideProcess) {
  Simulation sim;
  std::vector<int> order;
  Process* parent = nullptr;
  parent = &sim.spawn("parent", [&] {
    order.push_back(1);
    auto& child = sim.spawn("child", [&] { order.push_back(2); });
    (void)child;
    parent->delay(msec(1));
    order.push_back(3);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Process, ShutdownKillsBlockedProcesses) {
  bool cleaned = false;
  {
    Simulation sim;
    Process* p = nullptr;
    p = &sim.spawn("blocked-forever", [&] {
      struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
      } raii{cleaned};
      p->block();
    });
    sim.run();  // drains; p still blocked
    EXPECT_FALSE(p->done());
    EXPECT_EQ(sim.liveProcessCount(), 1u);
  }  // destructor must tear the process down cleanly
  EXPECT_TRUE(cleaned);
}

TEST(Process, ManyProcessesScale) {
  Simulation sim;
  int finished = 0;
  for (int i = 0; i < 200; ++i) {
    sim.spawn("w" + std::to_string(i), [&sim, &finished, i] {
      // Each process finds itself via name capture-free delay path.
      (void)i;
      ++finished;
    });
  }
  sim.run();
  EXPECT_EQ(finished, 200);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

// ---- Lifecycle torture: every kill/unwind/timeout edge, on both engines ----
//
// The tests above run on the default engine; everything below runs twice
// (threads and fibers) because these are exactly the paths where the two
// context-switch mechanisms could diverge: ProcessKilled unwinding fiber
// stacks through RAII, stale blockFor timers, kill in every process state,
// and stack reclamation under churn (the ASan lane runs this file too).

class EngineProcess : public ::testing::TestWithParam<Engine> {
 protected:
  SimConfig cfg(std::uint64_t seed = 1) const {
    return SimConfig{.seed = seed, .engine = GetParam()};
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, EngineProcess,
                         ::testing::Values(Engine::threads, Engine::fibers),
                         [](const ::testing::TestParamInfo<Engine>& info) {
                           return engineName(info.param);
                         });

struct UnwindTracker {
  std::vector<std::string>& log;
  std::string name;
  ~UnwindTracker() { log.push_back(name); }
};

TEST_P(EngineProcess, KillWhileBlockedUnwindsDestructorsInReverseOrder) {
  Simulation sim(cfg());
  std::vector<std::string> order;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("victim", [&] {
    UnwindTracker a{order, "a"};
    UnwindTracker b{order, "b"};
    { UnwindTracker scoped{order, "scoped"}; }  // dies before the kill
    UnwindTracker c{order, "c"};
    p->block();
    after = true;
  });
  sim.schedule(msec(5), [&] { p->kill(); });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_FALSE(after);
  EXPECT_EQ(order, (std::vector<std::string>{"scoped", "c", "b", "a"}));
}

TEST_P(EngineProcess, KillWhileReadyUnwindsBeforeBodyContinues) {
  // wake() has already queued the resume (state ready) when kill() lands;
  // the resume must deliver ProcessKilled instead of continuing the body.
  Simulation sim(cfg());
  bool cleaned = false;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("victim", [&] {
    struct Raii {
      bool& flag;
      ~Raii() { flag = true; }
    } raii{cleaned};
    p->block();
    after = true;
  });
  sim.schedule(msec(5), [&] {
    p->wake();
    EXPECT_EQ(p->state(), Process::State::ready);
    p->kill();
  });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
}

TEST_P(EngineProcess, KillMidDelayUnwindsWhenTheDelayExpires) {
  // kill() during a delay() does not cut the delay short: the pending
  // resume at expiry delivers ProcessKilled. Pins the timing contract both
  // engines must agree on.
  Simulation sim(cfg());
  bool cleaned = false;
  bool after = false;
  TimePoint unwound_at = kZero;
  Process* p = nullptr;
  p = &sim.spawn("sleeper", [&] {
    struct Raii {
      bool& flag;
      TimePoint& at;
      Simulation& s;
      ~Raii() {
        flag = true;
        at = s.now();
      }
    } raii{cleaned, unwound_at, sim};
    p->delay(msec(100));
    after = true;
  });
  sim.schedule(msec(5), [&] { p->kill(); });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
  EXPECT_EQ(unwound_at, msec(100));
}

TEST_P(EngineProcess, SelfKillTakesEffectAtNextYield) {
  Simulation sim(cfg());
  bool cleaned = false;
  bool after = false;
  Process* p = nullptr;
  p = &sim.spawn("suicidal", [&] {
    struct Raii {
      bool& flag;
      ~Raii() { flag = true; }
    } raii{cleaned};
    p->kill();          // marks only; we are running
    EXPECT_TRUE(p->killed());
    p->delay(msec(1));  // ProcessKilled on resume
    after = true;
  });
  sim.run();
  EXPECT_TRUE(p->done());
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(after);
}

TEST_P(EngineProcess, KillAfterDoneIsANoop) {
  Simulation sim(cfg());
  auto& p = sim.spawn("quick", [] {});
  sim.run();
  EXPECT_TRUE(p.done());
  p.kill();
  p.wake();
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_FALSE(p.killed());  // kill() on a done process does not even mark
}

// ---- blockFor stale-timeout tokens: the direct regression tests ----
//
// block() promises it never wakes spuriously: every block()/blockFor()/
// wake() advances block_token_, and a timer only fires while its captured
// token is current. These tests pin the token mechanics that back the
// contract in process.hpp.

TEST_P(EngineProcess, StaleTimerCannotWakeALaterBlock) {
  Simulation sim(cfg());
  std::vector<double> block_woke_at;
  bool woken_early = false;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    woken_early = p->blockFor(msec(100));  // woken at t=10 by wake()
    p->block();  // the stale timer fires (as a queue no-op) at t=100
    block_woke_at.push_back(toMillis(sim.now()));
  });
  sim.schedule(msec(10), [&] { p->wake(); });
  sim.schedule(msec(200), [&] { p->wake(); });  // the only legitimate waker
  sim.run();
  EXPECT_TRUE(woken_early);
  ASSERT_EQ(block_woke_at.size(), 1u);
  EXPECT_EQ(block_woke_at[0], 200.0);
}

TEST_P(EngineProcess, StaleTimerCannotForgeTimeoutOfALaterBlockFor) {
  Simulation sim(cfg());
  bool first = false;
  bool second = true;
  double second_done_at = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    first = p->blockFor(msec(50));    // woken at t=10
    second = p->blockFor(msec(100));  // t=10..110; stale timer at t=50 must not fire
    second_done_at = toMillis(sim.now());
  });
  sim.schedule(msec(10), [&] { p->wake(); });
  sim.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);                  // genuine timeout...
  EXPECT_EQ(second_done_at, 110.0);      // ...at its own deadline, not the stale one
}

TEST_P(EngineProcess, BackToBackBlockForsEachConsumeTheirOwnTimer) {
  Simulation sim(cfg());
  int timeouts = 0;
  Process* p = nullptr;
  p = &sim.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      if (!p->blockFor(msec(10))) ++timeouts;
    }
  });
  sim.run();
  EXPECT_EQ(timeouts, 3);
  EXPECT_EQ(sim.now(), msec(30));
}

// ---- Nested creation ----

TEST_P(EngineProcess, NestedSpawnThreeGenerationsDeep) {
  Simulation sim(cfg());
  std::vector<std::string> log;
  sim.spawn("parent", [&](Process& parent) {
    log.push_back("parent@" + std::to_string(toMillis(sim.now())));
    sim.spawn("child", [&](Process& child) {
      log.push_back("child@" + std::to_string(toMillis(sim.now())));
      child.delay(msec(2));
      sim.spawn("grandchild", [&](Process&) {
        log.push_back("grandchild@" + std::to_string(toMillis(sim.now())));
      });
      log.push_back("child-end@" + std::to_string(toMillis(sim.now())));
    });
    parent.delay(msec(1));
    log.push_back("parent-end@" + std::to_string(toMillis(sim.now())));
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{
                     "parent@0.000000", "child@0.000000", "parent-end@1.000000",
                     "child-end@2.000000", "grandchild@2.000000"}));
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

TEST_P(EngineProcess, ShutdownKillsBlockedProcesses) {
  bool cleaned = false;
  {
    Simulation sim(cfg());
    sim.spawn("blocked-forever", [&](Process& self) {
      struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
      } raii{cleaned};
      self.block();
    });
    sim.run();
    EXPECT_EQ(sim.liveProcessCount(), 1u);
  }  // destructor must tear the process down cleanly on either engine
  EXPECT_TRUE(cleaned);
}

// ---- Create/kill soak: 10k processes in waves ----
//
// Half of each wave runs to completion, half blocks and is killed while
// blocked. Exercises stack allocation/reclamation churn; under the ASan
// lane this is what catches fiber-stack leaks or use-after-free on the
// reclaimed stacks.

TEST_P(EngineProcess, TenThousandProcessCreateKillSoak) {
  Simulation sim(cfg());
  const int kWaves = 20;
  const int kPerWave = 500;  // 250 runners + 250 blockers
  int completed = 0;
  int unwound = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<Process*> blockers;
    for (int i = 0; i < kPerWave / 2; ++i) {
      sim.spawn("runner", [&](Process& self) {
        self.delay(usec(1));
        ++completed;
      });
      blockers.push_back(&sim.spawn("blocker", [&](Process& self) {
        struct Raii {
          int& n;
          ~Raii() { ++n; }
        } raii{unwound};
        self.block();
      }));
    }
    sim.run();  // runners finish, blockers block
    for (Process* b : blockers) b->kill();
    sim.run();  // kills unwind
    for (Process* b : blockers) EXPECT_TRUE(b->done());
  }
  EXPECT_EQ(completed, kWaves * kPerWave / 2);
  EXPECT_EQ(unwound, kWaves * kPerWave / 2);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

// ---- Delays whose resume is the next event ----
//
// A delay() whose resume would be the next event anyway runs without
// queueing it. Nothing observable may tell the two apart: the counts, the
// clock at every step and the order against other events all hold whichever
// way a delay is served.

TEST_P(EngineProcess, DelaysOfALoneProcessCountOneEventAndOneResumeEach) {
  Simulation sim(cfg());
  int steps = 0;
  sim.spawn("lone", [&](Process& self) {
    for (int i = 0; i < 1000; ++i) {
      self.delay(msec(1));
      EXPECT_EQ(sim.now(), msec(i + 1));
      ++steps;
    }
  });
  EXPECT_EQ(sim.run(), 1001u);  // the first resume, then one per delay
  EXPECT_EQ(steps, 1000);
  EXPECT_EQ(sim.now(), msec(1000));
  EXPECT_EQ(sim.metrics().counterValue("sim/events_executed"), 1001u);
  EXPECT_EQ(sim.metrics().counterValue("sim/process_resumes"), 1001u);
}

TEST_P(EngineProcess, RunForHorizonInsideADelayStopsThereAndResumesOnTime) {
  Simulation sim(cfg());
  std::vector<TimePoint> woke;
  sim.spawn("sleeper", [&](Process& self) {
    for (int i = 0; i < 5; ++i) {
      self.delay(msec(3));
      woke.push_back(sim.now());
    }
  });
  EXPECT_EQ(sim.runFor(msec(7)), 3u);  // the first resume and the delays due at 3 and 6 ms
  EXPECT_EQ(woke, (std::vector<TimePoint>{msec(3), msec(6)}));
  EXPECT_EQ(sim.now(), msec(7));
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(woke, (std::vector<TimePoint>{msec(3), msec(6), msec(9), msec(12), msec(15)}));
  EXPECT_EQ(sim.metrics().counterValue("sim/events_executed"), 6u);
}

TEST_P(EngineProcess, StopBeforeADelayHaltsTheRunBeforeItsResume) {
  Simulation sim(cfg());
  bool resumed = false;
  sim.spawn("stopper", [&](Process& self) {
    sim.stop();
    self.delay(msec(1));
    resumed = true;
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sim.now(), kZero);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(resumed);
  EXPECT_EQ(sim.now(), msec(1));
}

TEST_P(EngineProcess, EventDueExactlyAtADelaysEndRunsBeforeTheResume) {
  Simulation sim(cfg());
  std::vector<std::string> order;
  sim.schedule(msec(5), [&] { order.push_back("event"); });
  sim.spawn("sleeper", [&](Process& self) {
    self.delay(msec(2));
    order.push_back("sleeper@2");
    self.delay(msec(3));  // ends at 5 ms, where the event is already due
    order.push_back("sleeper@5");
  });
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(order, (std::vector<std::string>{"sleeper@2", "event", "sleeper@5"}));
  EXPECT_EQ(sim.now(), msec(5));
}

// ---- Pooled fiber stacks ----

TEST(StackPool, ReturnedStackIsHandedOutAgain) {
  StackPool pool(64 << 10);
  const FiberStack a = pool.acquire();
  const FiberStack b = pool.acquire();
  EXPECT_NE(a.base, b.base);
  pool.release(a);
  const FiberStack c = pool.acquire();
  EXPECT_EQ(c.base, a.base);
  EXPECT_EQ(c.guard_bytes, a.guard_bytes);
  EXPECT_EQ(c.stack_bytes, a.stack_bytes);
  const FiberStack d = pool.acquire();  // the pool is empty again: a fresh one
  EXPECT_NE(d.base, a.base);
  EXPECT_NE(d.base, b.base);
  pool.release(d);
  pool.release(b);
  pool.release(c);
}

TEST(StackPool, LiveProcessesNeverShareAStackAndFinishedOnesGiveTheirsBack) {
  Simulation sim;
  // A local's address tells which stack a process body runs on.
  auto where = [](std::uintptr_t& at) {
    return [&at](Process& self) {
      int local = 0;
      at = reinterpret_cast<std::uintptr_t>(&local);
      self.delay(msec(1));
    };
  };
  const std::size_t span = kFiberStackBytes;
  auto sameStack = [span](std::uintptr_t x, std::uintptr_t y) {
    return (x > y ? x - y : y - x) < span;
  };
  std::uintptr_t a = 0;
  std::uintptr_t b = 0;
  std::uintptr_t c = 0;
  sim.spawn("a", where(a));
  sim.spawn("b", where(b));
  sim.run();  // a and b were live at once
  EXPECT_FALSE(sameStack(a, b));
  sim.spawn("c", where(c));
  sim.run();
  EXPECT_TRUE(sameStack(c, a) || sameStack(c, b));
}

// Overflow of a recycled stack must still fault, and in that stack's own
// guard region. The overflowing frames are left uninstrumented so that
// ASan keeps them on the fiber stack.
FiberStack g_guarded;
volatile int g_depth_limit = std::numeric_limits<int>::max();

void onOverflowFault(int, siginfo_t* info, void*) {
  const auto* addr = static_cast<const unsigned char*>(info->si_addr);
  _exit(addr >= g_guarded.base && addr < g_guarded.bottom() ? 42 : 43);
}

__attribute__((noinline, no_sanitize("address"))) int recurseDeep(int depth) {
  volatile unsigned char frame[4096];
  frame[0] = static_cast<unsigned char>(depth);
  if (depth >= g_depth_limit) return frame[0];
  return recurseDeep(depth + 1) + frame[0];
}

struct Hop {
  Fiber* self = nullptr;
  Fiber* host = nullptr;
};

void overflowThenExit(void* arg) {
  auto* hop = static_cast<Hop*>(arg);
  (void)recurseDeep(0);
  hop->self->exitTo(*hop->host);
}

void exitAtOnce(void* arg) {
  auto* hop = static_cast<Hop*>(arg);
  hop->self->exitTo(*hop->host);
}

// Runs a fiber to completion, then overflows the next fiber, which must get
// the recycled stack. Exits 42 when the fault lands in that stack's guard.
[[noreturn]] void overflowARecycledStack() {
  StackPool pool(256 << 10);
  Fiber host;
  Hop hop{nullptr, &host};
  FiberStack first_stack;
  {
    Fiber first(pool, &exitAtOnce, &hop);
    hop.self = &first;
    first_stack = first.stack();
    host.switchTo(first);
  }
  Fiber second(pool, &overflowThenExit, &hop);
  hop.self = &second;
  if (second.stack().base != first_stack.base) _exit(44);  // not recycled
  g_guarded = second.stack();
  static unsigned char alt[64 << 10];
  stack_t ss{};
  ss.ss_sp = alt;
  ss.ss_size = sizeof(alt);
  sigaltstack(&ss, nullptr);
  struct sigaction sa {};
  sa.sa_sigaction = &onOverflowFault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);
  sigaction(SIGBUS, &sa, nullptr);
  host.switchTo(second);
  _exit(45);  // the recursion returned: no fault at all
}

TEST(StackPoolDeathTest, OverflowingARecycledStackFaultsInItsGuard) {
  EXPECT_EXIT(overflowARecycledStack(), ::testing::ExitedWithCode(42), "");
}

}  // namespace
}  // namespace clouds::sim
