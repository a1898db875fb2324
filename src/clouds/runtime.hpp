// The per-compute-server Clouds runtime: the object manager and thread
// manager system objects (paper §4.2) plus the cp-thread machinery.
//
//  * Object manager — creates/deletes objects, activates them (header
//    fetch, space assembly), and implements invocation: "the stack of the
//    thread invoking the object is mapped into the same virtual address
//    space as the object and the thread is allowed to commence execution at
//    the entry point".
//  * Thread manager — creation, termination, naming and bookkeeping of
//    threads, including the remote-invocation service other compute
//    servers call ("the thread sends an invocation request to B, which
//    invokes the object O2 and returns the results").
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "clouds/class_registry.hpp"
#include "clouds/context.hpp"
#include "clouds/object.hpp"
#include "clouds/thread.hpp"
#include "consistency/txn.hpp"
#include "dsm/client.hpp"
#include "migrate/protocol.hpp"
#include "ra/anon_partition.hpp"
#include "ra/mmu.hpp"
#include "ra/node.hpp"
#include "sim/sync.hpp"
#include "sysobj/name_server.hpp"
#include "sysobj/user_io.hpp"

namespace clouds::obj {

// The thread port's (kPortThread) one request, as invokeRemote sends it and
// the port's handler reads it: run `entry` of `object` for the visiting
// thread.
struct InvokeRequest {
  std::uint64_t thread = 0;
  net::NodeId workstation = net::kNoNode;
  sysobj::WindowId window = 0;
  Sysname object{};
  std::string entry{};
  Bytes args{};  // Value::encodeList

  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(r.thread);
    f(r.workstation);
    f(r.window);
    f(r.object);
    f(r.entry);
    f(r.args);
  }
};

// The status, then the result when ok, else the error text.
struct InvokeReply {
  Errc status = Errc::ok;
  std::string error{};
  Bytes result{};  // Value::encodeList of the one result

  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(r.status);
    if (r.status == Errc::ok) {
      f(r.result);
    } else {
      f(r.error);
    }
  }
};

// Header page 0 of an object: the forward record a migration left there,
// or else the object's descriptor (or why the page holds none).
struct HeaderPage {
  std::optional<migrate::ForwardRecord> forward;
  Result<ObjectDescriptor> desc;
};

// The object layer's one header read, through `dsm`. Fails when the page
// cannot be read, or holds a forward record that does not decode.
Result<HeaderPage> readHeader(sim::Process& self, dsm::DsmClientPartition& dsm,
                              const Sysname& header);

class Runtime {
 public:
  Runtime(ra::Node& node, dsm::DsmClientPartition& dsm, ra::AnonPartition& anon,
          ClassRegistry& classes, net::NodeId name_server);

  ra::Node& node() noexcept { return node_; }
  dsm::DsmClientPartition& dsm() noexcept { return dsm_; }
  sysobj::NameClient& names() noexcept { return names_; }
  consistency::TxnRuntime& txn() noexcept { return txn_; }

  // ---- Object manager ----
  // Create an instance of a class on the given data server; runs the class
  // constructor (if any) on the calling thread, binds user_name (optional).
  Result<Sysname> createObject(CloudsThread& t, const std::string& class_name,
                               net::NodeId data_server, const std::string& user_name);
  Result<void> destroyObject(sim::Process& self, const Sysname& object);
  // Flush and unmap an activation (used to make invocations cold again).
  Result<void> deactivateObject(sim::Process& self, const Sysname& object, bool flush = true);
  bool isActive(const Sysname& object) const { return active_.count(object) != 0; }

  // ---- Migration support (what the Migrator calls to drain / quiesce / pick) ----
  // Gate new local invocations of the object; in-flight ones (and re-entrant
  // self-calls of a gated thread) run to completion. False if already gated.
  bool beginDrain(const Sysname& object) { return draining_.insert(object).second; }
  void endDrain(const Sysname& object) {
    draining_.erase(object);
    drain_gate_.notifyAll();  // notifyAll only: a killed waiter's entry is inert
  }
  bool draining(const Sysname& object) const { return draining_.count(object) != 0; }
  // Threads currently executing inside the object's local activation.
  int executingThreads(const Sysname& object) const;
  // Block until the (draining) object quiesces locally; Errc::timeout if an
  // in-flight invocation outlasts `timeout`.
  Result<void> waitQuiesced(sim::Process& self, const Sysname& object, sim::Duration timeout);
  // Write back + tear down the activation so the home store is
  // authoritative; ok when the object is not active here.
  Result<void> flushForMigration(sim::Process& self, const Sysname& object);
  // Hottest non-draining active object with >= min_heat invocations
  // (ordered scan: lowest sysname wins ties, deterministically).
  std::optional<Sysname> hottestObject(std::uint64_t min_heat) const;
  void forgetHeat(const Sysname& object) { heat_.erase(object); }
  // Hot (>= min_heat) non-draining active objects whose segments are homed
  // on `home` — the Migrator's notion of a local pile. The spread candidate
  // is the *coldest* of the pile (lowest sysname on ties): re-spreading a
  // quiet node should keep its hottest object's cache locality and ship the
  // cheapest-to-lose one.
  std::size_t homedHotCount(std::uint64_t min_heat, net::NodeId home) const;
  std::optional<Sysname> spreadCandidate(std::uint64_t min_heat, net::NodeId home) const;

  // ---- Invocation ----
  Result<Value> invoke(CloudsThread& t, const Sysname& object, const std::string& entry,
                       const ValueList& args);
  Result<Value> invokeByName(CloudsThread& t, const std::string& object_name,
                             const std::string& entry, const ValueList& args);
  Result<Value> invokeRemote(CloudsThread& t, net::NodeId compute_node, const Sysname& object,
                             const std::string& entry, const ValueList& args);

  // ---- Thread manager ----
  struct ThreadHandle {
    bool done = false;
    Result<Value> result{Value{}};
    std::uint64_t thread_id = 0;
    sim::TimePoint completed_at = sim::kZero;  // simulated completion time
  };
  // Start a Clouds thread on this node executing object.entry(args);
  // (workstation, window) is its controlling terminal (kNoNode = none).
  std::shared_ptr<ThreadHandle> startThread(const Sysname& object, const std::string& entry,
                                            ValueList args,
                                            net::NodeId workstation = net::kNoNode,
                                            sysobj::WindowId window = 0);
  std::shared_ptr<ThreadHandle> startThreadByName(const std::string& object_name,
                                                  const std::string& entry, ValueList args,
                                                  net::NodeId workstation = net::kNoNode,
                                                  sysobj::WindowId window = 0);

  // Run arbitrary driver code on a fresh Clouds thread on this node (used
  // by the cluster façade, the shell, and tests).
  void spawnThread(const std::string& name, std::function<void(CloudsThread&)> body,
                   net::NodeId workstation = net::kNoNode, sysobj::WindowId window = 0);

  // Resolve a user name to a sysname, applying PET replica selection for
  // replicated bindings (thread-affine spread; paper §5.2.2).
  Result<Sysname> resolveTarget(CloudsThread& t, const std::string& name);

  // Threads currently hosted by this node (load metric for scheduling).
  std::size_t liveThreadCount() const noexcept { return threads_.size(); }

  // Observer invoked with each started thread's completion latency (start
  // to completion, simulated time). Feeds the scheduler's LoadMonitor EWMA.
  void onThreadCompleted(std::function<void(sim::Duration)> hook) {
    thread_completed_ = std::move(hook);
  }

 private:
  friend class ObjectContext;

  Result<ActiveObject*> activate(sim::Process& self, const Sysname& object);
  // startThread / startThreadByName: a Clouds thread whose body is
  // `run(thread) -> Result<Value>`, reporting through the returned handle.
  template <typename Run>
  std::shared_ptr<ThreadHandle> startInvocation(Run run, net::NodeId workstation,
                                                sysobj::WindowId window);
  Result<Value> invokeOnce(CloudsThread& t, const Sysname& object, const std::string& entry,
                           const ValueList& args);
  // Confirm a forward stub behind `object` (fresh read of its header page)
  // and return the re-homed sysname; Errc::not_found if no stub is there.
  // Tears down a stale local activation of the old name as a side effect.
  Result<Sysname> chaseForward(sim::Process& self, const Sysname& object);
  Result<Sysname> ensureClassLoaded(sim::Process& self, const ClassDef& def,
                                    net::NodeId data_server);
  void bindThreadService();
  InvokeReply serveInvoke(sim::Process& self, const Message& message);
  CloudsThread& adoptThread(std::uint64_t id, net::NodeId workstation, sysobj::WindowId window,
                            sim::Process& proc);
  void reapThread(CloudsThread& t);

  ra::Node& node_;
  dsm::DsmClientPartition& dsm_;
  ra::AnonPartition& anon_;
  ClassRegistry& classes_;
  ra::Mmu mmu_;
  consistency::TxnRuntime txn_;
  sysobj::NameClient names_;
  sysobj::IoClient io_;
  std::map<Sysname, ActiveObject> active_;
  // Objects gated for migration, plus the gates themselves. The wait queues
  // only ever use notifyAll: a node crash can leave killed processes'
  // entries behind, and notifyOne could burn a wakeup on such an inert entry.
  std::set<Sysname> draining_;
  sim::WaitQueue drain_gate_;    // woken when an object stops draining
  sim::WaitQueue quiesce_gate_;  // woken when a draining object's last thread leaves
  // Per-object local invocation counts (volatile) — the migrator's notion
  // of "hot".
  std::map<Sysname, std::uint64_t> heat_;
  std::vector<std::unique_ptr<CloudsThread>> threads_;
  std::uint64_t next_thread_ = 1;
  // Counters ("<node>/obj/..."), resolved at construction.
  // remote_invocations counts invocations served for another compute
  // server; forward_chases counts migrated-object lookups that followed a
  // stub.
  std::uint64_t* m_invocations_;
  std::uint64_t* m_remote_invocations_;
  std::uint64_t* m_activations_;
  std::uint64_t* m_tx_retries_;
  std::uint64_t* m_forward_chases_;
  std::function<void(sim::Duration)> thread_completed_;
};

}  // namespace clouds::obj
