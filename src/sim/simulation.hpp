// The discrete-event simulation driving a Clouds cluster.
//
// One Simulation owns the virtual clock, the event queue, every Process,
// the seeded random stream, and the trace sink. Events at equal timestamps
// execute in insertion order, which — together with the one-runner process
// handshake — makes runs deterministic for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/config.hpp"
#include "sim/fiber.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace clouds::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  explicit Simulation(const SimConfig& config);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const noexcept { return now_; }
  std::uint64_t seed() const noexcept { return config_.seed; }
  const SimConfig& config() const noexcept { return config_; }

  // Schedule fn to run in event context at now() + delay.
  void schedule(Duration delay, std::function<void()> fn);

  // Schedule a *daemon* event: background housekeeping (e.g. the load
  // gossip tick) that fires normally during bounded runs but does not keep
  // an unbounded run() alive — run() returns once only daemon events remain
  // queued, so "drain the cluster" loops still terminate.
  void scheduleDaemon(Duration delay, std::function<void()> fn);

  // Create a process; its body starts executing at now() (via the queue).
  // The returned reference stays valid for the simulation's lifetime. The
  // second form hands the body its own Process handle.
  Process& spawn(std::string name, std::function<void()> body);
  Process& spawn(std::string name, std::function<void(Process&)> body);

  // Run until the event queue drains, an optional deadline passes, or
  // stop() is called. Returns the number of events executed.
  std::size_t run();
  std::size_t runFor(Duration horizon);
  void stop() noexcept { stopped_ = true; }

  // Kill and unwind every live process now. An owner of state that
  // processes point into (nodes, services) calls this before freeing that
  // state; the destructor runs it again, which is then a no-op.
  void shutdown();

  // True when nothing remains scheduled (blocked processes may still exist).
  bool idle() const noexcept { return queue_.empty() && now_head_ == now_lane_.size(); }

  std::size_t liveProcessCount() const noexcept;

  // Deterministic per-simulation randomness (only consumer of the seed).
  std::mt19937_64& rng() noexcept { return rng_; }
  double uniform01() { return std::uniform_real_distribution<double>(0.0, 1.0)(rng_); }

  // Per-simulation metrics: part of the deterministic universe, like traces.
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  TraceSink& tracer() noexcept { return trace_; }
  void trace(std::string source, std::string category, std::string message) {
    trace_.record(now_, std::move(source), std::move(category), std::move(message));
  }

 private:
  friend class Process;

  // One queued event: a trivially copyable record, so the heap sifts plain
  // words and nothing is allocated or freed per event. Only `call` events
  // (schedule / scheduleDaemon) carry a callable, parked in calls_[arg].
  enum class EventKind : std::uint8_t {
    resume,  // process->onResumeEvent(): delay() expiry or a queued resume
    timer,   // process->onTimerEvent(arg): blockFor() timeout, arg = block token
    call,    // calls_[arg]()
  };
  struct Event {
    TimePoint at;
    std::uint64_t seq;
    EventKind kind;
    bool daemon;
    Process* process;
    std::uint64_t arg;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // Queue an event at now() + delay, one seq per call; throws
  // std::invalid_argument (naming `who`) on a negative delay. A zero delay
  // goes to the now lane, any other to the heap.
  void push(const char* who, Duration delay, EventKind kind, bool daemon, Process* process,
            std::uint64_t arg);
  void pushCall(const char* who, Duration delay, bool daemon, std::function<void()> fn);
  std::size_t runUntil(TimePoint horizon, bool bounded);
  // Process::delay(d) when the resume it would queue is certain to be the
  // next event run: advance the clock to now() + d and count that event and
  // its resume here, with no queueing and no context switch. Returns false,
  // changing nothing, when any other event could come first; throws on a
  // negative d, as push does.
  bool resumeInPlace(Duration d);

  SimConfig config_;
  // The scheduler side of every fiber context switch: adopts whichever host
  // stack is driving the event loop. Unused by the threads engine.
  Fiber sched_ctx_;
  TimePoint now_ = kZero;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_process_id_ = 0;
  bool stopped_ = false;
  bool running_ = false;
  TimePoint horizon_ = kZero;   // the current run's last event time
  std::size_t executed_ = 0;    // events run by the current run
  std::size_t live_events_ = 0;  // queued non-daemon events
  std::vector<Event> queue_;     // binary heap under EventLater: events queued with a delay > 0
  // The now lane: zero-delay events, all due at now_, in seq order from
  // now_head_ on. The clock cannot pass them, so it only advances once the
  // lane is empty.
  std::vector<Event> now_lane_;
  std::size_t now_head_ = 0;
  std::vector<std::function<void()>> calls_;  // callables of queued call events
  std::vector<std::uint64_t> free_calls_;     // reusable calls_ slots
  // Stacks of finished fibers, handed to new ones. Declared before
  // processes_ so every Process returns its stack before the pool unmaps.
  StackPool stacks_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::mt19937_64 rng_;
  TraceSink trace_;
  MetricsRegistry metrics_;
  // Simulation-core throughput counters (sim/*): cached references, bumped
  // on the hot path; bench_simcore reports them per engine (E10).
  std::uint64_t* events_executed_ = nullptr;
  std::uint64_t* process_resumes_ = nullptr;
  std::uint64_t* processes_spawned_ = nullptr;
};

// Convenience: the simulation clock as milliseconds (for reports/benches).
inline double nowMillis(const Simulation& s) { return toMillis(s.now()); }

}  // namespace clouds::sim
