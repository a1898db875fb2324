// PET — Parallel Execution Threads (paper §5.2.2, Figure 5).
//
// "The PET system works by first replicating all critical objects at
//  different nodes in the system. ... When a resilient computation is
//  initiated, separate replicated threads (gcp-threads) are created on a
//  number of nodes. ... An invocation by one thread on a replicated object
//  is done by choosing one replica of the object and invoking that replica.
//  The replica selection algorithm tries to ensure that separate threads
//  execute at different nodes. ... After one or more threads complete
//  successfully ..., one thread is chosen to be the terminating thread. All
//  updates made by this thread are propagated to a quorum of replicas, if
//  available. If there is a failure in committing this thread, another
//  completed thread is chosen. If the commit process succeeds, all the
//  remaining threads are aborted."
//
// Reconstructed commit semantics (DESIGN.md §6): each PET thread updates
// only its own replica object; the terminating thread's replica state (its
// persistent data + heap segments) is copied page-by-page to a majority
// write quorum, with a per-replica version vector in a meta segment. Losing
// threads' replicas are simply superseded (their versions stay behind and
// are repaired by the next propagation that includes them).
//
// This tolerates static failures (replicas/nodes down at start) and dynamic
// failures (compute or data nodes crashing mid-computation), trading
// resources (threads × replicas) for resilience — exactly the experiment
// bench_pet reproduces.
#pragma once

#include <vector>

#include "clouds/cluster.hpp"

namespace clouds::pet {

struct ReplicatedObject {
  std::string name;
  std::vector<Sysname> replicas;           // one object per data server
  Sysname meta;                            // version vector segment (home: data server 0)
};

struct ResilientResult {
  obj::Value value;                        // terminating thread's result
  int threads_started = 0;
  int threads_completed = 0;               // finished the computation
  int replicas_written = 0;                // quorum propagation fan-out
  int terminating_thread = -1;             // index of the chosen thread
  int failovers = 0;                       // commit candidates tried after a failure
};

class PetManager {
 public:
  explicit PetManager(Cluster& cluster) : cluster_(cluster) {
    sim::MetricsRegistry& metrics = cluster_.sim().metrics();
    m_runs_ = &metrics.counter("pet/runs");
    m_threads_started_ = &metrics.counter("pet/threads_started");
    m_threads_completed_ = &metrics.counter("pet/threads_completed");
    m_failovers_ = &metrics.counter("pet/replica_failovers");
    m_replicas_written_ = &metrics.counter("pet/replicas_written");
  }

  // Replicate a class instance across `replicas` distinct data servers and
  // bind the set under `name`. All replicas start from the same
  // (deterministic) constructor state.
  Result<ReplicatedObject> createReplicated(const std::string& class_name,
                                            const std::string& name, int replicas);

  // Run object.entry(args) as a resilient computation with `n_threads`
  // parallel execution threads. Synchronous: drives the simulation.
  Result<ResilientResult> runResilient(const ReplicatedObject& object,
                                       const std::string& entry, obj::ValueList args,
                                       int n_threads);

  // Read-side helper: invoke a read-only entry on the freshest reachable
  // replica (by version vector).
  Result<obj::Value> readFreshest(const ReplicatedObject& object, const std::string& entry,
                                  obj::ValueList args);

  // Test/observability helper: the object's current per-replica version
  // vector. Synchronous: drives the simulation.
  Result<std::vector<std::uint64_t>> replicaVersions(const ReplicatedObject& object);

 private:
  // Page 0 of the meta segment: a magic, then the list of replica versions.
  struct VersionVector {
    static constexpr std::uint64_t kMagic = 0xC10DFE70ULL;
    std::vector<std::uint64_t> versions;

    template <typename V, typename F>
    static void fields(V& v, F& f) {
      f(codec::Constant{kMagic, "bad PET meta segment"});
      f(v.versions);
    }
  };
  Result<VersionVector> readVersions(sim::Process& self, const ReplicatedObject& object);
  Result<void> writeVersions(sim::Process& self, const ReplicatedObject& object,
                             const VersionVector& vv);
  // Copy the winner replica's persistent segments onto target replicas;
  // returns how many targets (incl. the winner) now hold the new state.
  int propagate(sim::Process& self, const ReplicatedObject& object, int winner_idx,
                VersionVector& vv);

  Cluster& cluster_;
  // Registry handles ("pet/..."), resolved at construction.
  std::uint64_t* m_runs_;
  std::uint64_t* m_threads_started_;
  std::uint64_t* m_threads_completed_;
  std::uint64_t* m_failovers_;
  std::uint64_t* m_replicas_written_;
};

}  // namespace clouds::pet
