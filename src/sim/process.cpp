#include "sim/process.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "sim/simulation.hpp"

namespace clouds::sim {

Process::Process(Simulation& sim, std::uint64_t id, std::string name,
                 std::function<void(Process&)> body)
    : sim_(sim), id_(id), name_(std::move(name)), engine_(sim.config().engine),
      body_(std::move(body)) {
  if (engine_ == Engine::threads) {
    thread_ = std::thread([this] { threadMain(); });
  }
  // Fibers take their stack lazily in resumeNow(): a spawn wave only pays
  // for processes that actually start running.
}

Process::~Process() {
  if (!done()) {
    kill();
    resumeNow();
  }
  reap();
}

void Process::threadMain() {
  {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return process_turn_; });
  }
  runBody();
  // yield(State::done) returned: the thread exits and the scheduler reaps.
}

void Process::fiberMain() {
  runBody();
  // Unreachable: yield(State::done) exits the fiber permanently.
  std::abort();
}

void Process::runBody() {
  if (!killed_) {
    try {
      body_(*this);
    } catch (const ProcessKilled&) {
      // Normal teardown path: node crash or simulation shutdown.
    } catch (const std::exception& e) {
      // An exception escaping a process body is a programming error in the
      // reproduction itself (expected failures travel as Result<T>).
      std::fprintf(stderr, "fatal: exception escaped sim process '%s': %s\n", name_.c_str(),
                   e.what());
      std::abort();
    }
  }
  body_ = nullptr;  // drop captured handles before announcing done
  yield(State::done);
}

void Process::yield(State next) {
  assert(next == State::blocked || next == State::done);
  if (engine_ == Engine::threads) {
    std::unique_lock lk(mu_);
    state_ = next;
    process_turn_ = false;
    cv_.notify_all();
    if (next == State::done) return;  // thread is about to exit; scheduler reaps it
    cv_.wait(lk, [&] { return process_turn_; });
    lk.unlock();
  } else {
    state_ = next;
    if (next == State::done) fiber_->exitTo(sim_.sched_ctx_);  // never returns
    fiber_->switchTo(sim_.sched_ctx_);
  }
  throwIfKilled();
}

void Process::throwIfKilled() {
  if (!killed_) return;
  // Destructors running during kill-unwinding may reach here via release
  // paths; they must not block, and must not throw again.
  if (std::uncaught_exceptions() > 0) return;
  throw ProcessKilled{};
}

void Process::resumeNow() {
  assert(state_ != State::running);
  if (done()) return;
  ++*sim_.process_resumes_;
  if (engine_ == Engine::threads) {
    std::unique_lock lk(mu_);
    state_ = State::running;
    process_turn_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return !process_turn_; });
  } else {
    if (!fiber_) {
      fiber_ = std::make_unique<Fiber>(
          sim_.stacks_, [](void* self) { static_cast<Process*>(self)->fiberMain(); }, this);
    }
    state_ = State::running;
    sim_.sched_ctx_.switchTo(*fiber_);  // returns once the process yields
  }
  if (done()) reap();
}

void Process::scheduleResume() {
  if (done() || resume_queued_) return;
  resume_queued_ = true;
  if (state_ == State::blocked || state_ == State::created) state_ = State::ready;
  sim_.push("Process::scheduleResume", kZero, Simulation::EventKind::resume, false, this, 0);
}

void Process::onResumeEvent() {
  resume_queued_ = false;
  if (!done()) resumeNow();
}

void Process::onTimerEvent(std::uint64_t token) {
  if (state_ != State::blocked || block_token_ != token || resume_queued_) return;
  timed_out_ = true;
  ++block_token_;  // a timer fires at most once
  resumeNow();
}

void Process::delay(Duration d) {
  throwIfKilled();
  assert(state_ == State::running);
  if (sim_.resumeInPlace(d)) return;
  sim_.push("Process::delay", d, Simulation::EventKind::resume, false, this, 0);
  resume_queued_ = true;
  yield(State::blocked);
}

void Process::block() {
  throwIfKilled();
  ++block_token_;  // invalidate any stale blockFor timer
  yield(State::blocked);
}

bool Process::blockFor(Duration timeout) {
  throwIfKilled();
  // The timer carries the token this call takes below; pushing first means
  // a negative timeout throws before any state changes.
  sim_.push("Process::blockFor", timeout, Simulation::EventKind::timer, false, this,
            block_token_ + 1);
  ++block_token_;
  timed_out_ = false;
  yield(State::blocked);
  const bool woken = !timed_out_;
  timed_out_ = false;
  return woken;
}

void Process::wake() {
  if (state_ != State::blocked || resume_queued_) return;
  ++block_token_;  // cancel any outstanding blockFor timeout
  scheduleResume();
}

void Process::kill() {
  if (killed_ || state_ == State::done) return;
  killed_ = true;
  if (state_ == State::blocked) scheduleResume();
}

void Process::reap() {
  if (thread_.joinable()) thread_.join();
  fiber_.reset();
}

}  // namespace clouds::sim
