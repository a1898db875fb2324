// Synchronization primitives for simulation processes.
//
// These are the reproduction's analogue of the "system supported
// synchronization primitives such as locks or semaphores" the paper gives
// Clouds programmers (§2.2). All of them are FIFO and deterministic, built
// on the WaitQueue below; none touch host-thread synchronization directly.
#pragma once

#include <cstdint>

#include "sim/process.hpp"
#include "sim/time.hpp"

namespace clouds::sim {

// FIFO queue of blocked processes. Handles spurious wakeups (stale blockFor
// timers) internally: a waiter returns only when explicitly notified or its
// own timeout expires. Each waiter is a node in its own waiting frame, linked
// for exactly as long as that frame lives, so a waiter killed mid-wait
// leaves the queue as it unwinds and cannot absorb a later notification;
// a notifyOne it received but never took passes on to the next waiter.
class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Block the calling process until notified.
  void wait(Process& self);

  // Block with a timeout; returns false if the timeout elapsed first.
  bool waitFor(Process& self, Duration timeout);

  // Wake the longest-waiting process (no-op when empty).
  void notifyOne();
  void notifyAll();

  bool empty() const noexcept { return head_ == nullptr; }

 private:
  struct Waiter;
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
};

// Mutual exclusion between simulation processes (not host threads).
class SimMutex {
 public:
  void lock(Process& self);
  bool lockFor(Process& self, Duration timeout);
  void unlock();
  bool locked() const noexcept { return owner_ != nullptr; }
  Process* owner() const noexcept { return owner_; }

 private:
  Process* owner_ = nullptr;
  WaitQueue queue_;
};

class SimLockGuard {
 public:
  SimLockGuard(SimMutex& m, Process& self) : m_(m) { m_.lock(self); }
  ~SimLockGuard() { m_.unlock(); }
  SimLockGuard(const SimLockGuard&) = delete;
  SimLockGuard& operator=(const SimLockGuard&) = delete;

 private:
  SimMutex& m_;
};

class SimSemaphore {
 public:
  explicit SimSemaphore(std::int64_t initial = 0) : count_(initial) {}

  void acquire(Process& self);                      // P
  bool acquireFor(Process& self, Duration timeout);
  void release(std::int64_t n = 1);                 // V
  std::int64_t count() const noexcept { return count_; }

 private:
  std::int64_t count_;
  WaitQueue queue_;
};

// Condition variable used with SimMutex.
class SimCondition {
 public:
  void wait(Process& self, SimMutex& m);
  bool waitFor(Process& self, SimMutex& m, Duration timeout);
  void notifyOne() { queue_.notifyOne(); }
  void notifyAll() { queue_.notifyAll(); }

 private:
  WaitQueue queue_;
};

}  // namespace clouds::sim
