// Cluster — a complete Clouds installation (paper §3, Figure 3): compute
// servers (diskless), data servers, optional combined compute+data machines
// ("a machine with a disk can simultaneously be a compute and data
// server"), and user workstations on one Ethernet, with the name server on
// the first data server.
//
// This is the library's top-level public API. Host code registers classes,
// creates objects, and invokes entry points; each synchronous helper spawns
// a Clouds thread inside the simulation and drains the event loop. For
// concurrent scenarios (several threads in flight), use start() handles and
// run() directly.
//
// Index spaces: compute indices cover the diskless compute servers first,
// then the combined machines; data indices cover the pure data servers
// first, then the combined machines.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "clouds/runtime.hpp"
#include "dsm/server.hpp"
#include "migrate/migrator.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulation.hpp"

namespace clouds::sim {
class FaultPlan;
}

namespace clouds {

struct ClusterConfig {
  int compute_servers = 2;   // diskless
  int data_servers = 1;      // storage-only
  int combined_servers = 0;  // compute + data on one machine
  int workstations = 1;
  std::uint64_t seed = 42;
  // Context-switch engine for the simulation core (docs/SIMCORE.md). The
  // fiber default is >=10x faster; `threads` is the reference engine kept
  // so tests can prove the universes are byte-identical
  // (tests/sim_engine_equivalence_test.cpp).
  sim::Engine engine = sim::Engine::fibers;
  sim::CostModel cost;
  // Storage engine per data server (docs/STORAGE.md): `wal` is the
  // log-structured default (group commit + async batched write-back);
  // `flat` is the original synchronous reference path, kept selectable so
  // tests can prove the two are byte-equivalent on the data they store.
  store::StoreEngine store_engine = store::StoreEngine::wal;
  // Distributed scheduling (src/sched): placement policy, gossip cadence,
  // staleness windows. policy = PolicyKind::oracle restores the old
  // omniscient baseline.
  sched::Options sched;
  // Object migration (src/migrate): daemon watermarks and cadence. Disabled
  // by default; migrateObjectSync works regardless.
  migrate::Migrator::Options migrate;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- Programming model ----
  obj::ClassRegistry& classes() noexcept { return classes_; }

  // Create an instance of a registered class; its persistent segments live
  // on data server `data_idx`. Synchronous (drains the simulation).
  Result<Sysname> create(const std::string& class_name, const std::string& object_name,
                         int data_idx = 0, int compute_idx = 0);

  // Invoke object.entry(args) on a Clouds thread at compute server
  // `compute_idx`, controlled by window 0 of workstation 0 when present.
  Result<obj::Value> call(const std::string& object_name, const std::string& entry,
                          obj::ValueList args = {}, int compute_idx = 0);
  Result<obj::Value> callObject(const Sysname& object, const std::string& entry,
                                obj::ValueList args = {}, int compute_idx = 0);

  // Asynchronous thread start (drive with run()).
  std::shared_ptr<obj::Runtime::ThreadHandle> start(const std::string& object_name,
                                                    const std::string& entry,
                                                    obj::ValueList args = {},
                                                    int compute_idx = 0);
  // Asynchronous start by sysname: no NameServer round trip. The name-based
  // start() sends every invocation through the name service (hosted on the
  // first data node), which becomes the cluster hot spot under open-loop
  // application load; callers that captured the Sysname at create() time
  // should dispatch through this overload instead.
  std::shared_ptr<obj::Runtime::ThreadHandle> startObject(const Sysname& object,
                                                          const std::string& entry,
                                                          obj::ValueList args = {},
                                                          int compute_idx = 0);

  // The paper's §3.2 scheduling decision: "selecting a compute server to
  // execute the thread ... may depend on such factors as scheduling
  // policies and the load at each compute server". Placement goes through
  // the sched/ subsystem: the chooser node (workstation 0 when present,
  // else the first live compute server) consults its gossip-fed LoadTable
  // and the configured policy. A chosen server that turns out to be dead is
  // excluded and the placement retried; an empty table degrades to the
  // first live compute server (counted in sched/fallbacks).
  int scheduleComputeServer() { return scheduleComputeServer(std::nullopt); }
  int scheduleComputeServer(const std::optional<Sysname>& locality_hint);
  // Run one placement through an explicit chooser (benches compare several
  // independent choosers); returns a compute index, with the same
  // dead-server retry + degraded fallback as scheduleComputeServer.
  int placeVia(sched::Scheduler& chooser, const std::optional<Sysname>& locality_hint = {});
  // The old omniscient scheduler, kept as the oracle baseline: reads every
  // runtime's live thread count directly (no messages, no staleness).
  int scheduleOracle() const;
  // start() on the scheduled server (locality hint = the object's header
  // sysname, when this cluster created the object).
  std::shared_ptr<obj::Runtime::ThreadHandle> startBalanced(const std::string& object_name,
                                                            const std::string& entry,
                                                            obj::ValueList args = {});

  // Drain the event loop (returns executed event count).
  std::size_t run() { return sim_.run(); }

  // ---- Topology ----
  int computeCount() const noexcept { return static_cast<int>(compute_view_.size()); }
  int dataCount() const noexcept { return static_cast<int>(data_view_.size()); }
  int workstationCount() const noexcept { return static_cast<int>(workstations_.size()); }
  sim::Simulation& sim() noexcept { return sim_; }
  const sim::CostModel& cost() const noexcept { return config_.cost; }
  net::Ethernet& ether() noexcept { return ether_; }
  obj::Runtime& runtime(int compute_idx) { return *compute_view_.at(compute_idx).runtime; }
  ra::Node& computeNode(int idx) { return *compute_view_.at(idx).node; }
  ra::Node& dataNode(int idx) { return *data_view_.at(idx).node; }
  dsm::DsmClientPartition& dsmClient(int idx) { return *compute_view_.at(idx).dsm; }
  store::DiskStore& store(int idx) { return *data_view_.at(idx).store; }
  dsm::DsmServer& dsmServer(int idx) { return *data_view_.at(idx).server; }
  sysobj::NameServer& nameServer() { return *name_server_; }
  sysobj::Workstation& workstation(int idx) { return *workstations_.at(idx).ws; }
  sched::Agent& schedAgent(int compute_idx) { return *compute_view_.at(compute_idx).sched; }
  sched::Agent& workstationSchedAgent(int idx) { return *workstations_.at(idx).agent; }
  migrate::Migrator& migrator(int compute_idx) {
    return *compute_view_.at(compute_idx).migrator;
  }
  // The data server co-located with a compute node (kNoNode for a diskless
  // compute server — it cannot adopt segments).
  net::NodeId dataHomeOf(net::NodeId compute) const;
  // Synchronously migrate an object from wherever it lives to data server
  // `target_data_idx`, driven by compute server `compute_idx`'s Migrator.
  Result<Sysname> migrateObjectSync(int compute_idx, const Sysname& object,
                                    int target_data_idx);
  // Every compute server's migration transcript, node-name-prefixed, in
  // compute-view order — deterministic for a given seed.
  std::string migrationEvents() const;
  net::NodeId workstationId(int idx) const {
    return workstations_.empty() ? net::kNoNode : workstations_.at(idx).node->id();
  }

  // ---- Persistence across cluster lifetimes (paper §2.1: objects survive
  //      "system crashes and shutdowns") ----
  // Flush every compute server's dirty pages back to the data servers
  // (s-thread writes live in DSM caches until synced).
  Result<void> sync();
  // sync() + snapshot every data server's durable state + the name map into
  // a directory; a freshly constructed cluster with the same topology and
  // registered classes resumes from it.
  Result<void> saveTo(const std::string& directory);
  Result<void> loadFrom(const std::string& directory);

  // ---- Observability ----
  // Cluster-wide totals read from the metrics registry: each field sums one
  // or two "<node>/<subsystem>/<metric>" counters over every node
  // (docs/OBSERVABILITY.md). toString() prints them as "field=value".
  struct Stats {
    std::uint64_t invocations = 0;
    std::uint64_t remote_invocations = 0;
    std::uint64_t activations = 0;
    std::uint64_t tx_retries = 0;
    std::uint64_t page_faults = 0;       // DSM read + write faults
    std::uint64_t frames_on_wire = 0;
    std::uint64_t bytes_on_wire = 0;
    std::uint64_t retransmissions = 0;   // every RaTP endpoint, once each
    std::uint64_t invalidations = 0;     // DSM coherence callbacks sent
    std::uint64_t disk_reads = 0;
    std::uint64_t disk_writes = 0;
    // Storage (store/) counters, aggregated over every data server.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t wal_forces = 0;
    std::uint64_t wal_records = 0;       // log records appended (wal/records_appended)
    std::uint64_t wal_checkpoints = 0;
    std::uint64_t wal_pages_written_back = 0;
    // Scheduler (sched/) counters, aggregated over every agent.
    std::uint64_t sched_reports_sent = 0;
    std::uint64_t sched_reports_received = 0;
    std::uint64_t sched_placements = 0;
    std::uint64_t sched_stale_evictions = 0;
    std::uint64_t sched_fallbacks = 0;
    // Migration (migrate/) counters, aggregated over every compute server.
    std::uint64_t migrations_started = 0;
    std::uint64_t migrations_committed = 0;
    std::uint64_t migrations_aborted = 0;
    std::uint64_t forward_chases = 0;
    std::string toString() const;
  };
  Stats stats() const;

  // ---- Failure injection (paper §5.2) ----
  // Crashing a machine crashes every role it has, whichever view names it.
  // A dead compute role makes the surviving data servers purge its page
  // copies and reclaim its locks; a dead data role makes the surviving
  // compute roles drop the copies it granted.
  void crashCompute(int idx);
  void restartCompute(int idx) { compute_view_.at(idx).node->restart(); }
  void crashData(int idx);
  void restartData(int idx) { data_view_.at(idx).node->restart(); }
  void crashWorkstation(int idx) { workstations_.at(idx).node->crash(); }

  // Register every machine and workstation (by node name) plus the shared
  // medium with a fault plan; scripted plans then drive the same lifecycle
  // paths as the crash*/restart* calls above.
  void installFaultHooks(sim::FaultPlan& plan);

 private:
  struct Machine {  // one physical node, any combination of roles
    std::unique_ptr<ra::Node> node;
    // data role
    std::unique_ptr<store::DiskStore> store;
    std::unique_ptr<dsm::DsmServer> server;
    // compute role
    dsm::DsmClientPartition* dsm = nullptr;  // owned by the node
    ra::AnonPartition* anon = nullptr;       // owned by the node
    std::unique_ptr<obj::Runtime> runtime;
    std::unique_ptr<sched::Agent> sched;     // gossip + placement state
    std::unique_ptr<migrate::Migrator> migrator;
  };
  struct ComputeView {
    ra::Node* node;
    obj::Runtime* runtime;
    dsm::DsmClientPartition* dsm;
    sched::Agent* sched;
    migrate::Migrator* migrator;
  };
  struct DataView {
    ra::Node* node;
    store::DiskStore* store;
    dsm::DsmServer* server;
  };
  struct WorkstationNode {
    std::unique_ptr<ra::Node> node;
    std::unique_ptr<sysobj::Workstation> ws;
    std::unique_ptr<sched::Agent> agent;  // gossip listener + chooser
  };

  Machine makeMachine(net::NodeId id, const std::string& name, bool data_role,
                      bool compute_role);
  void finishComputeRole(Machine& m);
  // Crash a machine and send each notice its roles call for.
  void crashNode(ra::Node& node);
  std::vector<net::NodeId> resolveNames(const std::vector<std::string>& names) const;
  sched::Scheduler* chooserScheduler();
  int computeIndexOf(net::NodeId id) const;

  ClusterConfig config_;
  sim::Simulation sim_;
  net::Ethernet ether_;
  obj::ClassRegistry classes_;
  std::vector<Machine> machines_;
  std::vector<ComputeView> compute_view_;
  std::vector<DataView> data_view_;
  std::vector<WorkstationNode> workstations_;
  std::unique_ptr<sysobj::NameServer> name_server_;
  // Objects this façade created, for locality hints (an object's sysname is
  // its header segment's sysname — exactly what the gossip digests carry).
  std::map<std::string, Sysname> created_objects_;
};

}  // namespace clouds
