#include "pet/pet.hpp"

#include <algorithm>

namespace clouds::pet {

namespace {
// How long the coordinator keeps waiting for laggard PETs once at least one
// has completed. Crashed threads never complete; this bounds the wait.
constexpr sim::Duration kStragglerGrace = sim::msec(500);
constexpr sim::Duration kPollInterval = sim::msec(10);
constexpr sim::Duration kOverallDeadline = sim::sec(120);
}  // namespace

Result<ReplicatedObject> PetManager::createReplicated(const std::string& class_name,
                                                      const std::string& name, int replicas) {
  if (replicas < 1 || replicas > cluster_.dataCount()) {
    return makeError(Errc::bad_argument,
                     "replication degree must be in [1, data server count]");
  }
  Result<ReplicatedObject> out = makeError(Errc::internal, "replication never ran");
  obj::Runtime& rt = cluster_.runtime(0);
  rt.spawnThread("pet-create:" + name, [&, this](obj::CloudsThread& t) {
    ReplicatedObject ro;
    ro.name = name;
    for (int r = 0; r < replicas; ++r) {
      // One replica per data server, each a full object with identical
      // (deterministic) constructor state.
      auto created = rt.createObject(t, class_name, cluster_.dataNode(r).id(), "");
      if (!created.ok()) {
        out = created.error();
        return;
      }
      ro.replicas.push_back(created.value());
    }
    // Version vector lives in its own segment on data server 0.
    auto meta = cluster_.dsmClient(0).createSegment(*t.process, cluster_.dataNode(0).id(),
                                                    ra::kPageSize);
    if (!meta.ok()) {
      out = meta.error();
      return;
    }
    ro.meta = meta.value();
    VersionVector vv;
    vv.versions.assign(static_cast<std::size_t>(replicas), 0);
    auto wrote = writeVersions(*t.process, ro, vv);
    if (!wrote.ok()) {
      out = wrote.error();
      return;
    }
    auto bound = rt.names().bind(*t.process, name, ro.replicas);
    if (!bound.ok()) {
      out = bound.error();
      return;
    }
    out = ro;
  });
  cluster_.run();
  return out;
}

Result<PetManager::VersionVector> PetManager::readVersions(sim::Process& self,
                                                           const ReplicatedObject& object) {
  CLOUDS_TRY_ASSIGN(h,
                    cluster_.dsmClient(0).resolvePage(self, {object.meta, 0}, ra::Access::read));
  return codec::decode<VersionVector>(ByteSpan(h.data(), ra::kPageSize));
}

Result<void> PetManager::writeVersions(sim::Process& self, const ReplicatedObject& object,
                                       const VersionVector& vv) {
  const Bytes image = codec::encode(vv).take();
  dsm::DsmClientPartition& dsm = cluster_.dsmClient(0);
  CLOUDS_TRY_ASSIGN(h, dsm.resolvePage(self, {object.meta, 0}, ra::Access::write));
  std::copy(image.begin(), image.end(), h.mutableData());
  return dsm.flushSegment(self, object.meta);
}

int PetManager::propagate(sim::Process& self, const ReplicatedObject& object, int winner_idx,
                          VersionVector& vv) {
  // Copy the winner replica's persistent segments to the other replicas,
  // page by page, through ordinary DSM (real coherence traffic, real
  // costs). Requires the replicas' descriptors.
  dsm::DsmClientPartition& dsmp = cluster_.dsmClient(0);
  auto readDesc = [&](const Sysname& obj_name) -> Result<obj::ObjectDescriptor> {
    CLOUDS_TRY_ASSIGN(page, obj::readHeader(self, dsmp, obj_name));
    return std::move(page.desc);
  };
  auto winner_desc = readDesc(object.replicas[static_cast<std::size_t>(winner_idx)]);
  if (!winner_desc.ok()) return 0;

  const std::uint64_t new_version =
      *std::max_element(vv.versions.begin(), vv.versions.end()) + 1;
  int written = 1;  // the winner already holds the new state
  vv.versions[static_cast<std::size_t>(winner_idx)] = new_version;

  for (std::size_t r = 0; r < object.replicas.size(); ++r) {
    if (static_cast<int>(r) == winner_idx) continue;
    auto target_desc = readDesc(object.replicas[r]);
    if (!target_desc.ok()) continue;  // replica's data server is down
    auto copy = [&](const Sysname& from, const Sysname& to, std::uint64_t bytes) {
      return dsmp.copySegment(self, from, to, bytes).ok() && dsmp.flushSegment(self, to).ok();
    };
    const bool copied =
        copy(winner_desc.value().data_seg, target_desc.value().data_seg,
             winner_desc.value().data_size) &&
        copy(winner_desc.value().pheap_seg, target_desc.value().pheap_seg,
             winner_desc.value().pheap_size);
    if (copied) {
      ++written;
      vv.versions[r] = new_version;
    }
  }
  return written;
}

Result<ResilientResult> PetManager::runResilient(const ReplicatedObject& object,
                                                 const std::string& entry, obj::ValueList args,
                                                 int n_threads) {
  Result<ResilientResult> out = makeError(Errc::internal, "resilient run never finished");
  obj::Runtime& coordinator_rt = cluster_.runtime(0);

  coordinator_rt.spawnThread("pet-coordinator", [&, this](obj::CloudsThread& coord) {
    sim::Process& self = *coord.process;
    ResilientResult rr;
    ++*m_runs_;

    // Which compute servers are alive for PET placement?
    std::vector<int> compute_alive;
    for (int i = 0; i < cluster_.computeCount(); ++i) {
      if (cluster_.computeNode(i).alive()) compute_alive.push_back(i);
    }
    if (compute_alive.empty()) {
      out = makeError(Errc::unreachable, "no live compute servers");
      return;
    }

    auto vv = readVersions(self, object);
    if (!vv.ok()) {
      out = vv.error();
      return;
    }

    // Replica preference: freshest versions first (stale or dead replicas
    // would compute on old state).
    const std::uint64_t freshest =
        *std::max_element(vv.value().versions.begin(), vv.value().versions.end());
    std::vector<int> fresh_replicas;
    for (std::size_t r = 0; r < object.replicas.size(); ++r) {
      if (vv.value().versions[r] == freshest) fresh_replicas.push_back(static_cast<int>(r));
    }

    // Launch the PETs: thread i on compute server compute_alive[i mod ..],
    // against fresh replica i mod |fresh| (spread: separate threads at
    // separate nodes and replicas where possible).
    struct Pet {
      std::shared_ptr<obj::Runtime::ThreadHandle> handle;
      int replica = -1;
    };
    std::vector<Pet> pets;
    for (int i = 0; i < n_threads; ++i) {
      // Offset by one so the coordinator's own node is used last: PETs
      // should run at nodes with failure modes independent of the
      // initiator's where possible.
      const int node = compute_alive[static_cast<std::size_t>(i + 1) % compute_alive.size()];
      const int replica = fresh_replicas[static_cast<std::size_t>(i) % fresh_replicas.size()];
      Pet pet;
      pet.replica = replica;
      pet.handle = cluster_.runtime(node).startThread(
          object.replicas[static_cast<std::size_t>(replica)], entry, args);
      pets.push_back(std::move(pet));
      ++rr.threads_started;
      ++*m_threads_started_;
    }

    // Wait for completions; once one finishes give stragglers a short
    // grace, then decide.
    const sim::TimePoint hard_deadline = self.simulation().now() + kOverallDeadline;
    std::optional<sim::TimePoint> first_done_at;
    auto allDone = [&] {
      return std::all_of(pets.begin(), pets.end(),
                         [](const Pet& p) { return p.handle->done; });
    };
    auto anyDone = [&] {
      return std::any_of(pets.begin(), pets.end(), [](const Pet& p) {
        return p.handle->done && p.handle->result.ok();
      });
    };
    while (!allDone() && self.simulation().now() < hard_deadline) {
      if (anyDone()) {
        if (!first_done_at) first_done_at = self.simulation().now();
        if (self.simulation().now() - *first_done_at >= kStragglerGrace) break;
      }
      self.delay(kPollInterval);
    }

    for (const Pet& p : pets) {
      if (p.handle->done && p.handle->result.ok()) {
        ++rr.threads_completed;
        ++*m_threads_completed_;
      }
    }

    // Choose terminating threads in completion-friendly order; propagate to
    // a write quorum. "If there is a failure in committing this thread,
    // another completed thread is chosen."
    const int quorum = static_cast<int>(object.replicas.size()) / 2 + 1;
    bool commit_attempted = false;
    for (std::size_t i = 0; i < pets.size(); ++i) {
      Pet& p = pets[i];
      if (!p.handle->done || !p.handle->result.ok()) continue;
      // Every candidate after a failed commit attempt is a replica failover
      // ("if there is a failure in committing this thread, another completed
      // thread is chosen").
      if (commit_attempted) {
        ++*m_failovers_;
        ++rr.failovers;
      }
      commit_attempted = true;
      VersionVector working = vv.value();
      const int written = propagate(self, object, p.replica, working);
      if (written >= quorum) {
        if (!writeVersions(self, object, working).ok()) continue;
        rr.value = p.handle->result.value();
        rr.replicas_written = written;
        rr.terminating_thread = static_cast<int>(i);
        *m_replicas_written_ += static_cast<std::uint64_t>(written);
        out = rr;
        return;
      }
    }
    if (rr.threads_completed == 0) {
      out = makeError(Errc::aborted, "no PET completed (all threads failed or crashed)");
    } else {
      out = makeError(Errc::no_quorum, "completed threads could not reach a write quorum");
    }
  });
  cluster_.run();
  return out;
}

Result<std::vector<std::uint64_t>> PetManager::replicaVersions(const ReplicatedObject& object) {
  Result<std::vector<std::uint64_t>> out = makeError(Errc::internal, "version read never ran");
  obj::Runtime& rt = cluster_.runtime(0);
  rt.spawnThread("pet-versions", [&, this](obj::CloudsThread& t) {
    auto vv = readVersions(*t.process, object);
    if (!vv.ok()) {
      out = vv.error();
      return;
    }
    out = vv.value().versions;
  });
  cluster_.run();
  return out;
}

Result<obj::Value> PetManager::readFreshest(const ReplicatedObject& object,
                                            const std::string& entry, obj::ValueList args) {
  Result<obj::Value> out = makeError(Errc::internal, "read never ran");
  obj::Runtime& rt = cluster_.runtime(0);
  rt.spawnThread("pet-read", [&, this](obj::CloudsThread& t) {
    auto vv = readVersions(*t.process, object);
    if (!vv.ok()) {
      out = vv.error();
      return;
    }
    // Try replicas in version order, freshest first.
    std::vector<int> order;
    for (std::size_t r = 0; r < object.replicas.size(); ++r) order.push_back(static_cast<int>(r));
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return vv.value().versions[static_cast<std::size_t>(a)] >
             vv.value().versions[static_cast<std::size_t>(b)];
    });
    for (int r : order) {
      auto v = rt.invoke(t, object.replicas[static_cast<std::size_t>(r)], entry, args);
      if (v.ok()) {
        out = v;
        return;
      }
    }
    out = makeError(Errc::unreachable, "no replica reachable");
  });
  cluster_.run();
  return out;
}

}  // namespace clouds::pet
