#include "clouds/cluster.hpp"

#include <stdexcept>

#include "sim/fault.hpp"

namespace clouds {

namespace {
// Node-id plan: compute servers 1.., combined machines 50.., data servers
// 100.., workstations 200..
constexpr net::NodeId kComputeBase = 1;
constexpr net::NodeId kCombinedBase = 50;
constexpr net::NodeId kDataBase = 100;
constexpr net::NodeId kWorkstationBase = 200;
constexpr std::size_t kStoreCachePages = 256;  // buffer cache per data server
}  // namespace

Cluster::Machine Cluster::makeMachine(net::NodeId id, const std::string& name, bool data_role,
                                      bool compute_role) {
  Machine m;
  int roles = 0;
  if (data_role) roles |= static_cast<int>(ra::NodeRole::data);
  if (compute_role) roles |= static_cast<int>(ra::NodeRole::compute);
  m.node = std::make_unique<ra::Node>(sim_, config_.cost, ether_, id, name, roles);
  if (data_role) {
    m.store = std::make_unique<store::DiskStore>(m.node->id(), config_.cost, kStoreCachePages,
                                                 config_.store_engine);
    m.store->attachMetrics(sim_.metrics(), name);
    m.server = std::make_unique<dsm::DsmServer>(*m.node, *m.store);
    // wal engine: background write-back daemon, gated on the node being up
    // (a crashed data server's spindle is idle until restart).
    ra::Node* node = m.node.get();
    m.store->startFlusher(sim_, [node] { return node->alive(); });
  }
  if (compute_role) {
    // On a combined machine the client partition short-circuits requests
    // for locally homed segments ("data access via local disk is faster
    // than data access over a network", paper §3).
    auto dsm_part = std::make_unique<dsm::DsmClientPartition>(*m.node, m.server.get());
    m.dsm = dsm_part.get();
    m.node->addPartition(std::move(dsm_part));
    auto anon_part =
        std::make_unique<ra::AnonPartition>(m.node->id(), m.node->cpu(), config_.cost);
    m.anon = anon_part.get();
    m.node->addPartition(std::move(anon_part));
  }
  return m;
}

void Cluster::finishComputeRole(Machine& m) {
  if (m.dsm == nullptr) return;
  m.runtime = std::make_unique<obj::Runtime>(*m.node, *m.dsm, *m.anon, classes_,
                                             data_view_.front().node->id());
  // Everything the LoadMonitor samples is local to this machine.
  sched::LoadMonitor::Providers prov;
  prov.live_threads = [rt = m.runtime.get()] { return rt->liveThreadCount(); };
  prov.resident_frames = [d = m.dsm] { return d->residentFrames(); };
  prov.frame_capacity = [d = m.dsm] { return d->frameCapacity(); };
  prov.cached_segments = [d = m.dsm](std::size_t max) { return d->cachedSegments(max); };
  prov.homed_hot_objects = [this, rt0 = m.runtime.get(), node = m.node.get()] {
    return rt0->homedHotCount(config_.migrate.min_heat, dataHomeOf(node->id()));
  };
  m.sched = std::make_unique<sched::Agent>(*m.node, config_.sched, std::move(prov));
  m.runtime->onThreadCompleted([mon = m.sched->monitor()](sim::Duration latency) {
    mon->recordCompletion(latency);
  });
  std::set<net::NodeId> data_homes;
  for (const auto& other : machines_) {
    if (other.store != nullptr) data_homes.insert(other.node->id());
  }
  m.migrator = std::make_unique<migrate::Migrator>(*m.runtime, m.sched->table(),
                                                   std::move(data_homes),
                                                   data_view_.front().node->id(),
                                                   config_.migrate);
  // Keep the façade's locality hints pointing at the live incarnation.
  m.migrator->onCommitted([this](const Sysname& old_header, const Sysname& new_header) {
    for (auto& [name, sys] : created_objects_) {
      if (sys == old_header) sys = new_header;
    }
  });
}

net::NodeId Cluster::dataHomeOf(net::NodeId compute) const {
  for (const auto& m : machines_) {
    if (m.node->id() == compute) return m.store != nullptr ? compute : net::kNoNode;
  }
  return net::kNoNode;
}

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      sim_(sim::SimConfig{.seed = config.seed, .engine = config.engine}),
      ether_(sim_, config_.cost) {
  if (config_.compute_servers + config_.combined_servers < 1 ||
      config_.data_servers + config_.combined_servers < 1) {
    throw std::invalid_argument("cluster needs at least one compute and one data role");
  }
  // Machines: pure data servers, then combined, then pure compute servers.
  for (int i = 0; i < config_.data_servers; ++i) {
    machines_.push_back(
        makeMachine(kDataBase + i, "data" + std::to_string(i), true, false));
  }
  for (int i = 0; i < config_.combined_servers; ++i) {
    machines_.push_back(
        makeMachine(kCombinedBase + i, "combo" + std::to_string(i), true, true));
  }
  for (int i = 0; i < config_.compute_servers; ++i) {
    machines_.push_back(
        makeMachine(kComputeBase + i, "cpu" + std::to_string(i), false, true));
  }

  // Views: data = pure data servers first, then combined; compute = pure
  // compute servers first, then combined.
  for (auto& m : machines_) {
    if (m.store != nullptr && m.dsm == nullptr) {
      data_view_.push_back(DataView{m.node.get(), m.store.get(), m.server.get()});
    }
  }
  for (auto& m : machines_) {
    if (m.store != nullptr && m.dsm != nullptr) {
      data_view_.push_back(DataView{m.node.get(), m.store.get(), m.server.get()});
    }
  }
  name_server_ = std::make_unique<sysobj::NameServer>(*data_view_.front().node);
  for (auto& m : machines_) {
    if (m.dsm != nullptr && m.store == nullptr) finishComputeRole(m);
  }
  for (auto& m : machines_) {
    if (m.dsm != nullptr && m.store != nullptr) finishComputeRole(m);
  }
  for (auto& m : machines_) {
    if (m.runtime != nullptr && m.store == nullptr) {
      compute_view_.push_back(ComputeView{m.node.get(), m.runtime.get(), m.dsm, m.sched.get(), m.migrator.get()});
    }
  }
  for (auto& m : machines_) {
    if (m.runtime != nullptr && m.store != nullptr) {
      compute_view_.push_back(ComputeView{m.node.get(), m.runtime.get(), m.dsm, m.sched.get(), m.migrator.get()});
    }
  }
  // Pure data servers listen to the load gossip too (a name or storage
  // service may care about compute load), so broadcasts never land on an
  // unbound protocol handler.
  for (auto& m : machines_) {
    if (m.runtime == nullptr) {
      m.sched = std::make_unique<sched::Agent>(*m.node, config_.sched,
                                               sched::LoadMonitor::Providers{});
    }
  }

  for (int i = 0; i < config_.workstations; ++i) {
    WorkstationNode wn;
    wn.node = std::make_unique<ra::Node>(sim_, config_.cost, ether_, kWorkstationBase + i,
                                         "ws" + std::to_string(i),
                                         static_cast<int>(ra::NodeRole::workstation));
    wn.ws = std::make_unique<sysobj::Workstation>(*wn.node);
    // Workstations are where users submit threads, so each runs a listener
    // agent: its LoadTable is built only from received broadcasts.
    wn.agent = std::make_unique<sched::Agent>(*wn.node, config_.sched,
                                              sched::LoadMonitor::Providers{});
    workstations_.push_back(std::move(wn));
  }
}

Cluster::~Cluster() {
  // sim_ is declared before machines_, so it is destroyed after them: unwind
  // every process first, while the nodes its stack points into still exist.
  sim_.shutdown();
}

Result<Sysname> Cluster::create(const std::string& class_name, const std::string& object_name,
                                int data_idx, int compute_idx) {
  Result<Sysname> result = makeError(Errc::internal, "create never ran");
  obj::Runtime& rt = runtime(compute_idx);
  rt.spawnThread("create:" + object_name, [&, this](obj::CloudsThread& t) {
    result = rt.createObject(t, class_name, dataNode(data_idx).id(), object_name);
  });
  sim_.run();
  if (result.ok() && !object_name.empty()) created_objects_[object_name] = result.value();
  return result;
}

Result<obj::Value> Cluster::call(const std::string& object_name, const std::string& entry,
                                 obj::ValueList args, int compute_idx) {
  auto handle = runtime(compute_idx)
                    .startThreadByName(object_name, entry, std::move(args), workstationId(0), 0);
  sim_.run();
  if (!handle->done) {
    return makeError(Errc::internal, "simulation drained before the thread completed "
                                     "(blocked forever?)");
  }
  return handle->result;
}

Result<obj::Value> Cluster::callObject(const Sysname& object, const std::string& entry,
                                       obj::ValueList args, int compute_idx) {
  auto handle =
      runtime(compute_idx).startThread(object, entry, std::move(args), workstationId(0), 0);
  sim_.run();
  if (!handle->done) {
    return makeError(Errc::internal, "simulation drained before the thread completed "
                                     "(blocked forever?)");
  }
  return handle->result;
}

Result<Sysname> Cluster::migrateObjectSync(int compute_idx, const Sysname& object,
                                           int target_data_idx) {
  Result<Sysname> result = makeError(Errc::internal, "migration never ran");
  migrate::Migrator& mig = migrator(compute_idx);
  const net::NodeId target = dataNode(target_data_idx).id();
  runtime(compute_idx).spawnThread("migrate:" + object.toString(), [&](obj::CloudsThread& t) {
    result = mig.migrateObject(*t.process, object, target);
  });
  sim_.run();
  return result;
}

std::string Cluster::migrationEvents() const {
  std::string out;
  for (const auto& cv : compute_view_) {
    for (const std::string& e : cv.migrator->events()) {
      out += cv.node->name();
      out += ": ";
      out += e;
      out += '\n';
    }
  }
  return out;
}

std::shared_ptr<obj::Runtime::ThreadHandle> Cluster::start(const std::string& object_name,
                                                           const std::string& entry,
                                                           obj::ValueList args,
                                                           int compute_idx) {
  return runtime(compute_idx)
      .startThreadByName(object_name, entry, std::move(args), workstationId(0), 0);
}

std::shared_ptr<obj::Runtime::ThreadHandle> Cluster::startObject(const Sysname& object,
                                                                 const std::string& entry,
                                                                 obj::ValueList args,
                                                                 int compute_idx) {
  return runtime(compute_idx).startThread(object, entry, std::move(args), workstationId(0), 0);
}

Result<void> Cluster::sync() {
  Result<void> out = okResult();
  for (auto& cv : compute_view_) {
    if (!cv.node->alive()) continue;
    cv.runtime->spawnThread("sync", [&](obj::CloudsThread& t) {
      auto r = cv.dsm->flushAll(*t.process);
      if (!r.ok() && out.ok()) out = r;
    });
  }
  sim_.run();
  return out;
}

Result<void> Cluster::saveTo(const std::string& directory) {
  CLOUDS_TRY(sync());
  for (std::size_t i = 0; i < data_view_.size(); ++i) {
    CLOUDS_TRY(data_view_[i].store->saveTo(directory + "/data" + std::to_string(i) + ".img"));
  }
  return name_server_->saveTo(directory + "/names.img");
}

Result<void> Cluster::loadFrom(const std::string& directory) {
  for (std::size_t i = 0; i < data_view_.size(); ++i) {
    CLOUDS_TRY(data_view_[i].store->loadFrom(directory + "/data" + std::to_string(i) + ".img"));
  }
  return name_server_->loadFrom(directory + "/names.img");
}

namespace {

// Every Stats field with the registry counters it sums over all nodes, by
// "<subsystem>/<metric>" suffix. Each counter belongs to exactly one node,
// so a combined compute+data machine is counted once.
struct StatRow {
  std::uint64_t Cluster::Stats::*field;
  const char* name;
  const char* counters[2];  // the second may be null
};
constexpr StatRow kStatRows[] = {
    {&Cluster::Stats::invocations, "invocations", {"obj/invocations"}},
    {&Cluster::Stats::remote_invocations, "remote_invocations", {"obj/remote_invocations"}},
    {&Cluster::Stats::activations, "activations", {"obj/activations"}},
    {&Cluster::Stats::tx_retries, "tx_retries", {"obj/tx_retries"}},
    {&Cluster::Stats::page_faults, "page_faults", {"dsm/read_faults", "dsm/write_faults"}},
    {&Cluster::Stats::frames_on_wire, "frames_on_wire", {"eth/frames_on_wire"}},
    {&Cluster::Stats::bytes_on_wire, "bytes_on_wire", {"eth/bytes_on_wire"}},
    {&Cluster::Stats::retransmissions, "retransmissions", {"ratp/retransmits"}},
    {&Cluster::Stats::invalidations, "invalidations", {"dsm/invalidations", "dsm/degrades"}},
    {&Cluster::Stats::disk_reads, "disk_reads", {"disk/reads"}},
    {&Cluster::Stats::disk_writes, "disk_writes", {"disk/writes"}},
    {&Cluster::Stats::cache_hits, "cache_hits", {"store/cache_hits"}},
    {&Cluster::Stats::cache_misses, "cache_misses", {"store/cache_misses"}},
    {&Cluster::Stats::cache_evictions, "cache_evictions", {"store/cache_evictions"}},
    {&Cluster::Stats::wal_forces, "wal_forces", {"wal/forces"}},
    {&Cluster::Stats::wal_records, "wal_records", {"wal/records_appended"}},
    {&Cluster::Stats::wal_checkpoints, "wal_checkpoints", {"wal/checkpoints"}},
    {&Cluster::Stats::wal_pages_written_back, "wal_pages_written_back",
     {"wal/pages_written_back"}},
    {&Cluster::Stats::sched_reports_sent, "sched_reports_sent", {"sched/reports_sent"}},
    {&Cluster::Stats::sched_reports_received, "sched_reports_received",
     {"sched/reports_received"}},
    {&Cluster::Stats::sched_placements, "sched_placements", {"sched/placements"}},
    {&Cluster::Stats::sched_stale_evictions, "sched_stale_evictions",
     {"sched/stale_evictions"}},
    {&Cluster::Stats::sched_fallbacks, "sched_fallbacks", {"sched/fallbacks"}},
    {&Cluster::Stats::migrations_started, "migrations_started", {"migrate/started"}},
    {&Cluster::Stats::migrations_committed, "migrations_committed", {"migrate/committed"}},
    {&Cluster::Stats::migrations_aborted, "migrations_aborted", {"migrate/aborted"}},
    {&Cluster::Stats::forward_chases, "forward_chases", {"obj/forward_chases"}},
};

}  // namespace

Cluster::Stats Cluster::stats() const {
  Stats s;
  for (const StatRow& row : kStatRows) {
    for (const char* counter : row.counters) {
      if (counter != nullptr) s.*row.field += sim_.metrics().counterSum(counter);
    }
  }
  return s;
}

std::string Cluster::Stats::toString() const {
  std::string out;
  for (const StatRow& row : kStatRows) {
    if (!out.empty()) out += ' ';
    out += row.name;
    out += '=';
    out += std::to_string(this->*row.field);
  }
  return out;
}

void Cluster::crashNode(ra::Node& node) {
  node.crash();
  if (node.hasRole(ra::NodeRole::compute)) {
    // Surviving data servers detect the dead client (peer death /
    // membership) and purge its page copies and locks instead of waiting
    // out lease TTLs.
    for (auto& dv : data_view_) {
      if (dv.node->alive()) dv.server->onClientCrash(node.id());
    }
  }
  if (node.hasRole(ra::NodeRole::data)) {
    // The crashed data server's volatile directory died with it, so every
    // grant it issued is void; surviving clients drop the cached copies it
    // can no longer invalidate (dirty frames stay for write-back adoption).
    for (auto& cv : compute_view_) {
      if (cv.node->alive()) cv.dsm->purgeHomedOn(node.id());
    }
  }
}

void Cluster::crashCompute(int idx) { crashNode(*compute_view_.at(idx).node); }

void Cluster::crashData(int idx) { crashNode(*data_view_.at(idx).node); }

std::vector<net::NodeId> Cluster::resolveNames(const std::vector<std::string>& names) const {
  std::vector<net::NodeId> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    net::NodeId id = net::kNoNode;
    for (const auto& m : machines_) {
      if (m.node->name() == name) id = m.node->id();
    }
    for (const auto& wn : workstations_) {
      if (wn.node->name() == name) id = wn.node->id();
    }
    if (id == net::kNoNode) throw std::logic_error("Cluster: unknown node name '" + name + "'");
    out.push_back(id);
  }
  return out;
}

void Cluster::installFaultHooks(sim::FaultPlan& plan) {
  for (auto& m : machines_) {
    ra::Node* node = m.node.get();
    sim::FaultHooks hooks;
    hooks.crash = [this, node] { crashNode(*node); };
    hooks.reboot = [node] { node->restart(); };
    if (m.store != nullptr) {
      store::DiskStore* st = m.store.get();
      hooks.disk_faulty = [st](bool faulty) { st->setFaulty(faulty); };
    }
    plan.registerTarget(node->name(), std::move(hooks));
  }
  for (auto& wn : workstations_) {
    ra::Node* node = wn.node.get();
    sim::FaultHooks hooks;
    hooks.crash = [node] { node->crash(); };
    hooks.reboot = [node] { node->restart(); };
    plan.registerTarget(node->name(), std::move(hooks));
  }
  sim::MediumFaultHooks medium;
  medium.partition = [this](const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
    ether_.partitionGroups(resolveNames(a), resolveNames(b));
  };
  medium.heal = [this](const std::vector<std::string>& a, const std::vector<std::string>& b) {
    ether_.healGroups(resolveNames(a), resolveNames(b));
  };
  medium.loss_rate = [this](double rate) { ether_.setDropRate(rate); };
  plan.setMediumHooks(std::move(medium));
}

int Cluster::scheduleOracle() const {
  int best = -1;
  std::size_t best_load = 0;
  for (std::size_t i = 0; i < compute_view_.size(); ++i) {
    if (!compute_view_[i].node->alive()) continue;
    const std::size_t load = compute_view_[i].runtime->liveThreadCount();
    if (best < 0 || load < best_load) {
      best = static_cast<int>(i);
      best_load = load;
    }
  }
  if (best < 0) throw std::runtime_error("no live compute server to schedule on");
  return best;
}

int Cluster::computeIndexOf(net::NodeId id) const {
  for (std::size_t i = 0; i < compute_view_.size(); ++i) {
    if (compute_view_[i].node->id() == id) return static_cast<int>(i);
  }
  return -1;
}

// The node whose load view answers placement requests arriving at this
// façade: workstation 0 when present (users submit from workstations), else
// the first live compute server.
sched::Scheduler* Cluster::chooserScheduler() {
  for (auto& wn : workstations_) {
    if (wn.node->alive()) return &wn.agent->scheduler();
  }
  for (auto& cv : compute_view_) {
    if (cv.node->alive()) return &cv.sched->scheduler();
  }
  return nullptr;
}

int Cluster::placeVia(sched::Scheduler& chooser, const std::optional<Sysname>& locality_hint) {
  std::set<net::NodeId> excluded;
  for (;;) {
    auto placed = chooser.place(locality_hint, excluded);
    if (!placed.ok()) break;
    const int idx = computeIndexOf(placed.value());
    if (idx >= 0 && compute_view_[idx].node->alive()) return idx;
    // The chosen server crashed between its last report and now (or the
    // view is partitioned-stale): drop it and retry on what's left.
    chooser.noteDead(placed.value());
    excluded.insert(placed.value());
  }
  // Degraded mode — the chooser's view is empty (gossip disabled, fully
  // partitioned, or every known peer just excluded): place on the first
  // live compute server rather than failing the submission.
  for (std::size_t i = 0; i < compute_view_.size(); ++i) {
    if (compute_view_[i].node->alive()) {
      chooser.countFallback();
      return static_cast<int>(i);
    }
  }
  throw std::runtime_error("no live compute server to schedule on");
}

int Cluster::scheduleComputeServer(const std::optional<Sysname>& locality_hint) {
  if (config_.sched.policy == sched::PolicyKind::oracle) return scheduleOracle();
  sched::Scheduler* chooser = chooserScheduler();
  if (chooser == nullptr) throw std::runtime_error("no live compute server to schedule on");
  return placeVia(*chooser, locality_hint);
}

std::shared_ptr<obj::Runtime::ThreadHandle> Cluster::startBalanced(
    const std::string& object_name, const std::string& entry, obj::ValueList args) {
  std::optional<Sysname> hint;
  auto it = created_objects_.find(object_name);
  if (it != created_objects_.end()) hint = it->second;
  return start(object_name, entry, std::move(args), scheduleComputeServer(hint));
}

}  // namespace clouds
