// Migrator — the per-compute-server daemon that re-homes hot objects onto
// cold servers ("live object migration under load pressure").
//
// Trigger: the node's gossip LoadTable. When local effective load sits at or
// above `high_watermark` while some fresh peer reports at or below
// `low_watermark`, the daemon picks the hottest local object and ships its
// persistent segments (data + heap, via the ordinary DSM write-back path) to
// the data server co-located with the cold peer, then flips ownership with a
// single 2PC-logged page write (see docs/MIGRATION.md for the full crash
// matrix).
//
// Layering: migrate/ builds into the clouds_core library with the object
// runtime it serves, and calls that Runtime directly for the drain gate,
// the quiesce wait, the activation flush and the hot-object picks. The
// cluster façade supplies only what a node cannot see itself: which peers
// have a co-located data server, and a notice of each committed handoff.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "clouds/runtime.hpp"
#include "dsm/client.hpp"
#include "migrate/protocol.hpp"
#include "migrate/state.hpp"
#include "ra/node.hpp"
#include "sched/load_table.hpp"
#include "sysobj/name_server.hpp"

namespace clouds::migrate {

class Migrator {
 public:
  struct Options {
    // The daemon is opt-in; migrateObject() always works when called
    // directly (tests, an explicit rebalance tool).
    bool enabled = false;
    sim::Duration interval = sim::msec(100);
    sim::Duration cooldown = sim::msec(300);  // after an attempt, successful or not
    std::uint64_t high_watermark = 6;  // local effectiveLoad >= high ...
    std::uint64_t low_watermark = 2;   // ... while a fresh peer is <= low
    std::uint64_t min_heat = 2;        // invocations before an object counts as hot
    // Don't ship a second object to the same peer until its own gossip has
    // had time to reflect the first handoff — a cold peer's report lags the
    // load we just gave it, and trusting it verbatim dogpiles every hot
    // object onto the lowest-id idle node.
    sim::Duration target_backoff = sim::msec(200);
    // Low-watermark rebalance nudge (opt-in): a *quiet* node (effective
    // load <= low_watermark) whose own data server homes a pile of hot
    // objects re-spreads them to fresh peers reporting strictly smaller
    // piles (homed_hot + 1 < ours). Each ship strictly decreases the sum of
    // squared pile sizes, so the spreading terminates instead of trading
    // objects between equally idle nodes forever; a pile of one never
    // sheds. This is the fix for the "stranded placements" limitation:
    // objects dogpiled onto a one-time-cold node no longer stay there after
    // the pressure that sent them subsides (docs/MIGRATION.md).
    bool rebalance = false;
  };

  // `data_homes` lists the nodes with a data server: a compute peer in it
  // can adopt segments, any other is diskless.
  Migrator(obj::Runtime& runtime, sched::LoadTable& table, std::set<net::NodeId> data_homes,
           net::NodeId name_server, Options options);

  // The synchronous protocol: drain -> lock -> ship -> 2PC flip -> forward
  // -> GC. Returns the new header sysname (homed on `target`). On any
  // failure before the commit decision, local ownership is fully restored.
  Result<Sysname> migrateObject(sim::Process& self, const Sysname& header,
                                net::NodeId target);

  State state() const noexcept { return fsm_.state(); }
  std::uint64_t generation() const noexcept { return fsm_.generation(); }
  const Options& options() const noexcept { return options_; }

  // Deterministic protocol transcript, one line per event (state changes,
  // begins, aborts, commits) — the determinism suite replays it byte for
  // byte, and chaos tests use the state hook to inject crashes at exact
  // protocol states.
  const std::vector<std::string>& events() const noexcept { return events_; }
  void onStateChange(std::function<void(State)> fn) { state_hook_ = std::move(fn); }
  // Notice of a durable handoff: old header -> new header.
  void onCommitted(std::function<void(const Sysname&, const Sysname&)> fn) {
    committed_hook_ = std::move(fn);
  }

 private:
  bool tick(sim::Process& self);  // true if a migration was attempted
  bool rebalanceTick(sim::Process& self, const sched::LoadTable::Entry& me,
                     sim::TimePoint now);
  void event(std::string what);
  // The data server co-located with a compute node (kNoNode: diskless).
  net::NodeId dataHomeOf(net::NodeId compute) const {
    return data_homes_.count(compute) != 0 ? compute : net::kNoNode;
  }

  ra::Node& node_;
  obj::Runtime& runtime_;
  dsm::DsmClientPartition& dsm_;
  sched::LoadTable& table_;
  std::set<net::NodeId> data_homes_;
  sysobj::NameClient names_;
  Options options_;
  MigrationFsm fsm_;
  std::vector<std::string> events_;
  std::function<void(State)> state_hook_;
  std::function<void(const Sysname&, const Sysname&)> committed_hook_;
  std::map<net::NodeId, sim::TimePoint> last_shipped_;  // target -> commit time
  std::uint64_t seq_ = 0;    // migration txid sequence (high bit set: disjoint
                             // from TxnRuntime's txids on the same node)
  // Counters ("<node>/migrate/..."), resolved at construction. in_doubt
  // counts decisions left undeliverable with the source dark;
  // forwards_installed counts NameServer forwarding entries.
  std::uint64_t* m_started_;
  std::uint64_t* m_committed_;
  std::uint64_t* m_aborted_;
  std::uint64_t* m_in_doubt_;
  std::uint64_t* m_forwards_;
};

}  // namespace clouds::migrate
