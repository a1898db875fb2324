#include "sim/sync.hpp"

#include "sim/simulation.hpp"

namespace clouds::sim {

// A queued waiter: links itself at the tail on construction and unlinks on
// every exit from the waiting frame, a ProcessKilled unwinding included. The
// queue therefore never holds a dead frame's address, which GCC's
// -Wdangling-pointer cannot see through the destructor.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-pointer"
#endif
struct WaitQueue::Waiter {
  Waiter(WaitQueue& q, Process& p) : queue(q), process(p), prev(q.tail_) {
    (prev != nullptr ? prev->next : q.head_) = this;
    q.tail_ = this;
  }
  ~Waiter() {
    (prev != nullptr ? prev->next : queue.head_) = next;
    (next != nullptr ? next->prev : queue.tail_) = prev;
    // A notifyOne this frame leaves without taking (it was killed before it
    // resumed) belongs to the next waiter, or a mutex handed to a dead
    // process would strand the rest of its queue.
    if (handoff) queue.notifyOne();
  }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  WaitQueue& queue;
  Process& process;
  bool notified = false;  // by notifyOne or notifyAll
  bool handoff = false;   // by notifyOne, until the waiting call returns
  Waiter* prev;
  Waiter* next = nullptr;
};

void WaitQueue::wait(Process& self) {
  Waiter w(*this, self);
  while (!w.notified) self.block();
  w.handoff = false;
}

bool WaitQueue::waitFor(Process& self, Duration timeout) {
  Waiter w(*this, self);
  const TimePoint deadline = self.simulation().now() + timeout;
  while (!w.notified) {
    const Duration remaining = deadline - self.simulation().now();
    if (remaining <= kZero) return false;
    (void)self.blockFor(remaining);
  }
  w.handoff = false;
  return true;
}
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif

void WaitQueue::notifyOne() {
  for (Waiter* w = head_; w != nullptr; w = w->next) {
    if (!w->notified) {
      w->notified = w->handoff = true;
      w->process.wake();
      return;
    }
  }
}

void WaitQueue::notifyAll() {
  for (Waiter* w = head_; w != nullptr; w = w->next) {
    if (!w->notified) {
      w->notified = true;
      w->process.wake();
    }
  }
}

void SimMutex::lock(Process& self) {
  while (owner_ != nullptr) queue_.wait(self);
  owner_ = &self;
}

bool SimMutex::lockFor(Process& self, Duration timeout) {
  const TimePoint deadline = self.simulation().now() + timeout;
  while (owner_ != nullptr) {
    const Duration remaining = deadline - self.simulation().now();
    if (remaining <= kZero) return false;
    if (!queue_.waitFor(self, remaining) && owner_ != nullptr) return false;
  }
  owner_ = &self;
  return true;
}

void SimMutex::unlock() {
  owner_ = nullptr;
  queue_.notifyOne();
}

void SimSemaphore::acquire(Process& self) {
  while (count_ <= 0) queue_.wait(self);
  --count_;
}

bool SimSemaphore::acquireFor(Process& self, Duration timeout) {
  const TimePoint deadline = self.simulation().now() + timeout;
  while (count_ <= 0) {
    const Duration remaining = deadline - self.simulation().now();
    if (remaining <= kZero) return false;
    if (!queue_.waitFor(self, remaining) && count_ <= 0) return false;
  }
  --count_;
  return true;
}

void SimSemaphore::release(std::int64_t n) {
  count_ += n;
  for (std::int64_t i = 0; i < n; ++i) queue_.notifyOne();
}

void SimCondition::wait(Process& self, SimMutex& m) {
  m.unlock();
  queue_.wait(self);
  m.lock(self);
}

bool SimCondition::waitFor(Process& self, SimMutex& m, Duration timeout) {
  m.unlock();
  const bool notified = queue_.waitFor(self, timeout);
  m.lock(self);
  return notified;
}

}  // namespace clouds::sim
