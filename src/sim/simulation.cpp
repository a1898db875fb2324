#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace clouds::sim {

Simulation::Simulation(std::uint64_t seed) : Simulation(SimConfig{.seed = seed}) {}

Simulation::Simulation(const SimConfig& config)
    : config_(config), stacks_(kFiberStackBytes), rng_(config.seed) {
  events_executed_ = &metrics_.counter("sim/events_executed");
  process_resumes_ = &metrics_.counter("sim/process_resumes");
  processes_spawned_ = &metrics_.counter("sim/processes_spawned");
}

Simulation::~Simulation() { shutdown(); }

void Simulation::push(const char* who, Duration delay, EventKind kind, bool daemon,
                      Process* process, std::uint64_t arg) {
  if (delay < kZero) throw std::invalid_argument(std::string(who) + ": negative delay");
  std::vector<Event>& to = delay == kZero ? now_lane_ : queue_;
  to.push_back(Event{now_ + delay, next_seq_++, kind, daemon, process, arg});
  if (delay != kZero) std::push_heap(queue_.begin(), queue_.end(), EventLater{});
  if (!daemon) ++live_events_;
}

void Simulation::pushCall(const char* who, Duration delay, bool daemon,
                          std::function<void()> fn) {
  if (delay < kZero) throw std::invalid_argument(std::string(who) + ": negative delay");
  std::uint64_t slot = calls_.size();
  if (free_calls_.empty()) {
    calls_.push_back(std::move(fn));
  } else {
    slot = free_calls_.back();
    free_calls_.pop_back();
    calls_[slot] = std::move(fn);
  }
  push(who, delay, EventKind::call, daemon, nullptr, slot);
}

void Simulation::schedule(Duration delay, std::function<void()> fn) {
  pushCall("Simulation::schedule", delay, false, std::move(fn));
}

void Simulation::scheduleDaemon(Duration delay, std::function<void()> fn) {
  pushCall("Simulation::scheduleDaemon", delay, true, std::move(fn));
}

Process& Simulation::spawn(std::string name, std::function<void()> body) {
  return spawn(std::move(name), [body = std::move(body)](Process&) { body(); });
}

Process& Simulation::spawn(std::string name, std::function<void(Process&)> body) {
  auto p = std::unique_ptr<Process>(
      new Process(*this, next_process_id_++, std::move(name), std::move(body)));
  Process& ref = *p;
  processes_.push_back(std::move(p));
  ++*processes_spawned_;
  ref.scheduleResume();
  return ref;
}

std::size_t Simulation::run() {
  return runUntil(TimePoint(std::numeric_limits<std::int64_t>::max()), false);
}

std::size_t Simulation::runFor(Duration horizon) { return runUntil(now_ + horizon, true); }

std::size_t Simulation::runUntil(TimePoint horizon, bool bounded) {
  if (running_) throw std::logic_error("Simulation::run is not reentrant");
  running_ = true;
  stopped_ = false;
  horizon_ = horizon;
  executed_ = 0;
  while (!stopped_) {
    // An unbounded run drains real work; once only daemon housekeeping
    // (periodic gossip ticks, ...) remains, it would spin forever, so stop
    // and leave the daemon events queued for the next bounded run.
    if (!bounded && live_events_ == 0) break;
    // Every lane event is due now; a heap event due now as well runs first
    // only if it was queued first.
    const bool from_lane = now_head_ < now_lane_.size() &&
                           (queue_.empty() || queue_.front().at != now_ ||
                            now_lane_[now_head_].seq < queue_.front().seq);
    if (!from_lane && queue_.empty()) break;
    const Event ev = from_lane ? now_lane_[now_head_] : queue_.front();
    if (ev.at > horizon) break;
    if (from_lane) {
      if (++now_head_ == now_lane_.size()) {
        now_lane_.clear();
        now_head_ = 0;
      }
    } else {
      assert(ev.at >= now_);
      std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
      queue_.pop_back();
      now_ = ev.at;
    }
    if (!ev.daemon) --live_events_;
    switch (ev.kind) {
      case EventKind::resume:
        ev.process->onResumeEvent();
        break;
      case EventKind::timer:
        ev.process->onTimerEvent(ev.arg);
        break;
      case EventKind::call: {
        // Move the callable out first: it may schedule calls that reuse or
        // reallocate the slot table.
        auto fn = std::move(calls_[ev.arg]);
        free_calls_.push_back(ev.arg);
        fn();
        break;
      }
    }
    ++executed_;
    ++*events_executed_;
  }
  if (bounded && !stopped_ && now_ < horizon) now_ = horizon;
  running_ = false;
  return executed_;
}

bool Simulation::resumeInPlace(Duration d) {
  if (d < kZero) throw std::invalid_argument("Process::delay: negative delay");
  // The queued resume would be next only inside a run that will go on to
  // take it: no stop, the lane empty, the heap's first event strictly later
  // (a tie goes to the heap event, queued first), and within the horizon.
  const TimePoint at = now_ + d;
  if (!running_ || stopped_ || now_head_ < now_lane_.size() || at > horizon_ ||
      (!queue_.empty() && queue_.front().at <= at)) {
    return false;
  }
  // Exactly what the queued resume would leave behind: its seq spent, the
  // clock at its time, one event run and one process resume.
  ++next_seq_;
  now_ = at;
  ++executed_;
  ++*events_executed_;
  ++*process_resumes_;
  return true;
}

std::size_t Simulation::liveProcessCount() const noexcept {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->done()) ++n;
  }
  return n;
}

void Simulation::shutdown() {
  // Kill in reverse creation order so dependents unwind before the services
  // they use. A killed process's unwinding may wake others; resume those via
  // direct handoff as well (events no longer run).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = processes_.rbegin(); it != processes_.rend(); ++it) {
      Process& p = **it;
      if (p.done()) continue;
      p.kill();
      if (p.state() == Process::State::blocked || p.state() == Process::State::ready ||
          p.state() == Process::State::created) {
        p.resumeNow();
        progressed = true;
      }
    }
  }
  for (auto& p : processes_) p->reap();
}

}  // namespace clouds::sim
