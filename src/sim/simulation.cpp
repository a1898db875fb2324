#include "sim/simulation.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace clouds::sim {

Simulation::Simulation(std::uint64_t seed) : Simulation(SimConfig{.seed = seed}) {}

Simulation::Simulation(const SimConfig& config) : config_(config), rng_(config.seed) {
  events_executed_ = &metrics_.counter("sim/events_executed");
  process_resumes_ = &metrics_.counter("sim/process_resumes");
  processes_spawned_ = &metrics_.counter("sim/processes_spawned");
}

Simulation::~Simulation() { shutdown(); }

void Simulation::schedule(Duration delay, std::function<void()> fn) {
  if (delay < kZero) throw std::invalid_argument("Simulation::schedule: negative delay");
  queue_.push(Event{now_ + delay, next_seq_++, false, std::move(fn)});
  ++live_events_;
}

void Simulation::scheduleDaemon(Duration delay, std::function<void()> fn) {
  if (delay < kZero) throw std::invalid_argument("Simulation::scheduleDaemon: negative delay");
  queue_.push(Event{now_ + delay, next_seq_++, true, std::move(fn)});
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
  std::size_t executed = 0;
  while (!queue_.empty() && !stopped_) {
    // An unbounded run drains real work; once only daemon housekeeping
    // (periodic gossip ticks, ...) remains, it would spin forever, so stop
    // and leave the daemon events queued for the next bounded run.
    if (!bounded && live_events_ == 0) break;
    const Event& top = queue_.top();
    if (bounded && top.at > horizon) break;
    assert(top.at >= now_);
    now_ = top.at;
    if (!top.daemon) --live_events_;
    auto fn = std::move(const_cast<Event&>(top).fn);
    queue_.pop();
    fn();
    ++executed;
    ++*events_executed_;
  }
  if (bounded && !stopped_ && now_ < horizon) now_ = horizon;
  running_ = false;
  return executed;
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
