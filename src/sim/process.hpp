// Cooperatively scheduled simulation processes.
//
// A Process carries real C++ code (Clouds entry points, protocol handlers)
// under a strict one-runner-at-a-time handshake: the scheduler resumes
// exactly one process and waits until it yields (delay / block /
// termination) before touching the event queue again. Combined with
// deterministic event ordering this makes every run with a given seed
// bit-for-bit reproducible, while letting "object code" be ordinary C++.
//
// Two interchangeable context-switch engines implement the handshake
// (SimConfig::engine, docs/SIMCORE.md): the original thread-per-process
// engine (a parked std::thread each) and the default stackful-fiber engine
// (per-process user-space stacks, sim/fiber.hpp — no kernel switches, >=10x
// the event throughput). The state machine below is engine-neutral, so the
// two produce byte-identical universes for a given seed
// (tests/sim_engine_equivalence_test.cpp).
//
// This is the reproduction's stand-in for an IsiBa's machine context; the Ra
// layer wraps it with a stack segment and node binding (DESIGN.md §2).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "sim/config.hpp"
#include "sim/fiber.hpp"
#include "sim/time.hpp"

namespace clouds::sim {

class Simulation;

// Thrown inside a process when its node crashes or the simulation shuts
// down. Unwinds the process stack through RAII cleanup; never caught by
// user code.
struct ProcessKilled {};

class Process {
 public:
  enum class State : std::uint8_t { created, ready, running, blocked, done };

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  const std::string& name() const noexcept { return name_; }
  std::uint64_t id() const noexcept { return id_; }
  State state() const noexcept { return state_; }
  bool done() const noexcept { return state_ == State::done; }
  Simulation& simulation() const noexcept { return sim_; }

  // ---- Calls made from inside the process body (process context) ----

  // Advance virtual time by d, yielding to other events meanwhile.
  void delay(Duration d);

  // Block until wake() is called. Never wakes spuriously: blockFor()
  // timeouts are tokenized (block_token_), and a timer fires only while its
  // captured token is still current — block(), blockFor(), and wake() each
  // advance the token, so a stale timer from an earlier blockFor() cannot
  // fire into a later block (tests/sim_process_test.cpp,
  // EngineProcess.StaleTimerCannot*).
  void block();

  // Block with a timeout. Returns true if woken by wake(), false if the
  // timeout elapsed first.
  bool blockFor(Duration timeout);

  // ---- Calls made from scheduler/event context or another process ----

  // Make a blocked process runnable (no-op if it is not blocked).
  void wake();

  // Mark the process for teardown; the next time it would run, ProcessKilled
  // is thrown inside it instead. Used for node crashes and shutdown.
  void kill();

  bool killed() const noexcept { return killed_; }

 private:
  friend class Simulation;
  Process(Simulation& sim, std::uint64_t id, std::string name, std::function<void(Process&)> body);

  // Shared body wrapper: runs the user code, absorbs ProcessKilled, and
  // yields State::done. Entered by threadMain (threads) or fiberMain
  // (fibers) once the first resume arrives.
  void runBody();
  void threadMain();
  [[noreturn]] void fiberMain();
  // Hand control back to the scheduler and wait to be resumed. Rethrows
  // ProcessKilled on resume if kill() was requested (unless unwinding).
  // Never returns when next == State::done on the fiber engine.
  void yield(State next);
  void throwIfKilled();
  // Scheduler side: transfer control to the process and wait for its yield.
  void resumeNow();
  // Queue a resume event at the current time if none is pending.
  void scheduleResume();
  // Event bodies (Simulation::runUntil): a queued resume — from delay() or
  // scheduleResume() — and a blockFor() timeout armed with `token`.
  void onResumeEvent();
  void onTimerEvent(std::uint64_t token);
  // Release the engine's execution resources once the process is done:
  // join the host thread / return the fiber stack to the pool. Idempotent.
  void reap();

  Simulation& sim_;
  std::uint64_t id_;
  std::string name_;
  const Engine engine_;
  std::function<void(Process&)> body_;  // released when the body finishes

  // The threads engine's handoff: the scheduler and the process thread pass
  // the turn through mu_ and cv_ (threadMain, yield, resumeNow), and only
  // process_turn_ is read under the lock. Exactly one context runs at a time
  // in either engine, and under threads every handoff crosses mu_, so the
  // state machine below needs no lock of its own; under fibers no Process
  // method takes one.
  std::mutex mu_;
  std::condition_variable cv_;
  bool process_turn_ = false;

  // Engine-neutral state machine.
  State state_ = State::created;
  bool resume_queued_ = false;
  bool timed_out_ = false;
  bool killed_ = false;
  std::uint64_t block_token_ = 0;

  std::thread thread_;           // threads engine
  std::unique_ptr<Fiber> fiber_; // fibers engine; stack taken on first resume
};

}  // namespace clouds::sim
