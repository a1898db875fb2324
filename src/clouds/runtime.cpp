#include "clouds/runtime.hpp"

#include <algorithm>

#include "migrate/protocol.hpp"

namespace clouds::obj {

namespace {

constexpr std::uint64_t kStackSize = 8 * ra::kPageSize;
constexpr std::uint64_t kThreadLocalSize = 2 * ra::kPageSize;
constexpr int kTxRetries = 12;
// Remote invocations may legitimately run for a long time (a worker thread
// sorting for seconds); retransmissions are deduplicated server-side.
constexpr sim::Duration kRemoteInvokeTimeout = sim::sec(5);
constexpr int kRemoteInvokeRetries = 60;

std::uint64_t roundUpPages(std::uint64_t bytes) {
  return (bytes + ra::kPageSize - 1) / ra::kPageSize * ra::kPageSize;
}

// Deterministic "compiled code" bytes for a class's code segment.
std::byte codeByte(const std::string& class_name, std::uint64_t offset) {
  return static_cast<std::byte>(fnv1a(class_name) * 31 + offset * 0x9e3779b9ULL >> 16);
}

}  // namespace

Runtime::Runtime(ra::Node& node, dsm::DsmClientPartition& dsm, ra::AnonPartition& anon,
                 ClassRegistry& classes, net::NodeId name_server)
    : node_(node),
      dsm_(dsm),
      anon_(anon),
      classes_(classes),
      mmu_(node),
      sync_(dsm),
      txn_(node, dsm, sync_),
      names_(node, name_server),
      io_(node) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_invocations_ = &metrics.counter(node_.name() + "/obj/invocations");
  m_remote_invocations_ = &metrics.counter(node_.name() + "/obj/remote_invocations");
  m_activations_ = &metrics.counter(node_.name() + "/obj/activations");
  m_tx_retries_ = &metrics.counter(node_.name() + "/obj/tx_retries");
  m_forward_chases_ = &metrics.counter(node_.name() + "/obj/forward_chases");
  bindThreadService();
  node_.onCrashHook([this] {
    // Activations are volatile kernel state. Threads killed by the crash
    // unwind *after* this hook runs, so their invocation frames still hold
    // raw ActiveObject pointers into active_; bumping the epoch tells those
    // frames their activation is gone and must not be touched.
    ++activation_epoch_;
    active_.clear();
    // Drain gates and heat counters die with the node (the Migrator's crash
    // hook force-resets its FSM in the same sweep).
    draining_.clear();
    heat_.clear();
  });
}

// ---------------------------------------------------------------- classes

Result<Sysname> Runtime::ensureClassLoaded(sim::Process& self, const ClassDef& def,
                                           net::NodeId data_server) {
  const std::string key = "class:" + def.name;
  auto found = names_.lookup(self, key);
  if (found.ok()) return found.value().sysnames.front();
  if (found.code() != Errc::not_found) return found.error();

  // First instantiation anywhere: load the class — create its code segment
  // and fill it with the "compiled module" (paper: the compiler loads the
  // generated classes on a Clouds data server).
  CLOUDS_TRY_ASSIGN(code_seg, dsm_.createSegment(self, data_server, roundUpPages(def.code_size)));
  const std::uint32_t pages =
      static_cast<std::uint32_t>(roundUpPages(def.code_size) / ra::kPageSize);
  for (std::uint32_t p = 0; p < pages; ++p) {
    CLOUDS_TRY_ASSIGN(h, dsm_.resolvePage(self, {code_seg, p}, ra::Access::write));
    for (std::size_t i = 0; i < ra::kPageSize; i += 64) {
      h.data[i] = codeByte(def.name, static_cast<std::uint64_t>(p) * ra::kPageSize + i);
    }
  }
  CLOUDS_TRY(dsm_.flushSegment(self, code_seg));
  auto bound = names_.bind(self, key, {code_seg});
  if (!bound.ok()) {
    if (bound.code() == Errc::already_exists) {
      // Another node loaded it concurrently; use theirs.
      (void)dsm_.destroySegment(self, code_seg);
      CLOUDS_TRY_ASSIGN(b, names_.lookup(self, key));
      return b.sysnames.front();
    }
    return bound.error();
  }
  return code_seg;
}

// ---------------------------------------------------------------- objects

Result<Sysname> Runtime::createObject(CloudsThread& t, const std::string& class_name,
                                      net::NodeId data_server, const std::string& user_name) {
  sim::Process& self = *t.process;
  const ClassDef* def = classes_.find(class_name);
  if (def == nullptr) return makeError(Errc::not_found, "no such class: " + class_name);

  CLOUDS_TRY_ASSIGN(code_seg, ensureClassLoaded(self, *def, data_server));
  CLOUDS_TRY_ASSIGN(data_seg,
                    dsm_.createSegment(self, data_server, roundUpPages(def->data_size)));
  CLOUDS_TRY_ASSIGN(pheap_seg,
                    dsm_.createSegment(self, data_server, roundUpPages(def->pheap_size)));
  CLOUDS_TRY_ASSIGN(header, dsm_.createSegment(self, data_server, ra::kPageSize));

  ObjectDescriptor desc;
  desc.class_name = class_name;
  desc.code_seg = code_seg;
  desc.data_seg = data_seg;
  desc.pheap_seg = pheap_seg;
  desc.code_size = roundUpPages(def->code_size);
  desc.data_size = roundUpPages(def->data_size);
  desc.pheap_size = roundUpPages(def->pheap_size);
  desc.vheap_size = roundUpPages(def->vheap_size);

  const Bytes encoded = desc.encode();
  if (encoded.size() > ra::kPageSize) {
    return makeError(Errc::bad_argument, "object descriptor exceeds a page");
  }
  CLOUDS_TRY_ASSIGN(h, dsm_.resolvePage(self, {header, 0}, ra::Access::write));
  std::copy(encoded.begin(), encoded.end(), h.data);
  CLOUDS_TRY(dsm_.flushSegment(self, header));  // the object now exists, durably

  if (def->constructor) {
    CLOUDS_TRY_ASSIGN(ignored, invoke(t, header, "<ctor>", {}));
    (void)ignored;
  }
  if (!user_name.empty()) {
    CLOUDS_TRY(names_.bind(self, user_name, {header}));
  }
  node_.simulation().trace(node_.name(), "objmgr",
                           "created " + class_name + " object " + header.toString() +
                               (user_name.empty() ? "" : " (" + user_name + ")"));
  return header;
}

Result<void> Runtime::destroyObject(sim::Process& self, const Sysname& object) {
  auto it = active_.find(object);
  ObjectDescriptor desc;
  if (it != active_.end()) {
    desc = it->second.desc;
    CLOUDS_TRY(deactivateObject(self, object, /*flush=*/false));
  } else {
    CLOUDS_TRY_ASSIGN(h, dsm_.resolvePage(self, {object, 0}, ra::Access::read));
    CLOUDS_TRY_ASSIGN(d, ObjectDescriptor::decode(ByteSpan(h.data, ra::kPageSize)));
    desc = d;
  }
  // The shared code segment stays (other instances use it).
  CLOUDS_TRY(dsm_.destroySegment(self, desc.data_seg));
  CLOUDS_TRY(dsm_.destroySegment(self, desc.pheap_seg));
  CLOUDS_TRY(dsm_.destroySegment(self, object));
  return okResult();
}

Result<void> Runtime::deactivateObject(sim::Process& self, const Sysname& object, bool flush) {
  auto it = active_.find(object);
  if (it == active_.end()) return makeError(Errc::not_found, "object not active");
  if (it->second.executing_threads > 0) {
    return makeError(Errc::bad_argument, "object has executing threads");
  }
  if (flush) {
    CLOUDS_TRY(dsm_.flushSegment(self, it->second.desc.data_seg));
    CLOUDS_TRY(dsm_.flushSegment(self, it->second.desc.pheap_seg));
  }
  dsm_.dropSegment(it->second.desc.data_seg);
  dsm_.dropSegment(it->second.desc.pheap_seg);
  dsm_.dropSegment(it->second.desc.code_seg);
  dsm_.dropSegment(object);
  anon_.destroy(it->second.vheap_seg);
  active_.erase(it);
  return okResult();
}

// ------------------------------------------------------------- migration

int Runtime::executingThreads(const Sysname& object) const {
  auto it = active_.find(object);
  return it == active_.end() ? 0 : it->second.executing_threads;
}

Result<void> Runtime::waitQuiesced(sim::Process& self, const Sysname& object,
                                   sim::Duration timeout) {
  const sim::TimePoint deadline = node_.simulation().now() + timeout;
  while (executingThreads(object) > 0) {
    const sim::TimePoint now = node_.simulation().now();
    if (now >= deadline) {
      return makeError(Errc::timeout, "drain of " + object.toString() +
                                          " timed out with threads still executing");
    }
    (void)quiesce_gate_.waitFor(self, deadline - now);
  }
  return okResult();
}

Result<void> Runtime::flushForMigration(sim::Process& self, const Sysname& object) {
  if (active_.count(object) == 0) return okResult();  // store already authoritative
  return deactivateObject(self, object, /*flush=*/true);
}

std::optional<Sysname> Runtime::hottestObject(std::uint64_t min_heat) const {
  std::optional<Sysname> best;
  std::uint64_t best_heat = 0;
  for (const auto& [name, ao] : active_) {
    (void)ao;
    if (draining_.count(name) != 0) continue;
    const auto it = heat_.find(name);
    const std::uint64_t h = it == heat_.end() ? 0 : it->second;
    if (h < min_heat) continue;
    if (!best.has_value() || h > best_heat) {  // strict >: lowest sysname wins ties
      best = name;
      best_heat = h;
    }
  }
  return best;
}

std::size_t Runtime::homedHotCount(std::uint64_t min_heat, net::NodeId home) const {
  if (home == net::kNoNode) return 0;
  std::size_t count = 0;
  for (const auto& [name, ao] : active_) {
    (void)ao;
    if (draining_.count(name) != 0) continue;
    if (ra::sysnameHome(name) != home) continue;
    const auto it = heat_.find(name);
    if (it != heat_.end() && it->second >= min_heat) ++count;
  }
  return count;
}

std::optional<Sysname> Runtime::spreadCandidate(std::uint64_t min_heat,
                                                net::NodeId home) const {
  if (home == net::kNoNode) return std::nullopt;
  std::optional<Sysname> best;
  std::uint64_t best_heat = 0;
  for (const auto& [name, ao] : active_) {
    (void)ao;
    if (draining_.count(name) != 0) continue;
    if (ra::sysnameHome(name) != home) continue;
    const auto it = heat_.find(name);
    const std::uint64_t h = it == heat_.end() ? 0 : it->second;
    if (h < min_heat) continue;
    if (!best.has_value() || h < best_heat) {  // strict <: lowest sysname wins ties
      best = name;
      best_heat = h;
    }
  }
  return best;
}

Result<ActiveObject*> Runtime::activate(sim::Process& self, const Sysname& object) {
  auto it = active_.find(object);
  if (it != active_.end()) return &it->second;

  // Retrieve the object header from its data server and build the space
  // (paper §3.2: "retrieves a header for the object ..., sets up the
  // object space and starts the thread in that space"). A migrated-away
  // object leaves a forward stub in its header page; chase it to the
  // object's current home (bounded — a longer chain means a cycle).
  Sysname cur = object;
  for (int hop = 0; hop <= migrate::kMaxForwardHops; ++hop) {
    CLOUDS_TRY_ASSIGN(h, dsm_.resolvePage(self, {cur, 0}, ra::Access::read));
    const ByteSpan image(h.data, ra::kPageSize);
    if (migrate::isForwardPage(image)) {
      CLOUDS_TRY_ASSIGN(rec, migrate::ForwardRecord::decode(image));
      ++*m_forward_chases_;
      node_.simulation().trace(node_.name(), "objmgr",
                               "chasing migrated object " + cur.toString() + " -> " +
                                   rec.new_header.toString());
      cur = rec.new_header;
      auto hit = active_.find(cur);
      if (hit != active_.end()) return &hit->second;
      continue;
    }
    CLOUDS_TRY_ASSIGN(desc, ObjectDescriptor::decode(image));
    node_.cpu().compute(self, node_.cost().object_activation);

    ActiveObject ao;
    ao.header = cur;
    ao.desc = desc;
    CLOUDS_TRY(ao.space.map({kCodeBase, desc.code_size, desc.code_seg, 0, /*writable=*/false}));
    CLOUDS_TRY(ao.space.map({kDataBase, desc.data_size, desc.data_seg, 0, true}));
    CLOUDS_TRY(ao.space.map({kPHeapBase, desc.pheap_size, desc.pheap_seg, 0, true}));
    ao.vheap_seg = anon_.create(desc.vheap_size);
    CLOUDS_TRY(ao.space.map({kVHeapBase, desc.vheap_size, ao.vheap_seg, 0, true}));
    ++*m_activations_;
    auto [pos, inserted] = active_.emplace(cur, std::move(ao));
    (void)inserted;
    return &pos->second;
  }
  return makeError(Errc::internal,
                   "forward chain from " + object.toString() + " exceeds " +
                       std::to_string(migrate::kMaxForwardHops) + " hops");
}

Result<Sysname> Runtime::chaseForward(sim::Process& self, const Sysname& object) {
  // Fresh read of the authoritative header page. Order matters: confirm the
  // stub FIRST — only then tear down the stale activation. (Tearing down on
  // a transient error would discard a live object's volatile heap.)
  dsm_.dropSegment(object);
  CLOUDS_TRY_ASSIGN(h, dsm_.resolvePage(self, {object, 0}, ra::Access::read));
  const ByteSpan image(h.data, ra::kPageSize);
  if (!migrate::isForwardPage(image)) {
    return makeError(Errc::not_found, "no forward stub behind " + object.toString());
  }
  CLOUDS_TRY_ASSIGN(rec, migrate::ForwardRecord::decode(image));
  auto it = active_.find(object);
  if (it != active_.end() && it->second.executing_threads == 0) {
    // Stale activation of the pre-migration incarnation; its segments are
    // gone from the source, so drop (not flush) the frames.
    (void)deactivateObject(self, object, /*flush=*/false);
  }
  heat_.erase(object);
  ++*m_forward_chases_;
  node_.simulation().trace(node_.name(), "objmgr",
                           "chasing migrated object " + object.toString() + " -> " +
                               rec.new_header.toString());
  return rec.new_header;
}

// ---------------------------------------------------------------- invoke

Result<Value> Runtime::invokeByName(CloudsThread& t, const std::string& object_name,
                                    const std::string& entry, const ValueList& args) {
  CLOUDS_TRY_ASSIGN(target, resolveTarget(t, object_name));
  return invoke(t, target, entry, args);
}

Result<Sysname> Runtime::resolveTarget(CloudsThread& t, const std::string& name) {
  CLOUDS_TRY_ASSIGN(binding, names_.lookup(*t.process, name));
  if (!binding.isReplicated()) return binding.sysnames.front();
  // PET replica selection: spread threads over replicas so one failure
  // affects few threads; a dead replica is skipped at invocation time by
  // the caller retrying resolve with the next index (handled in pet/).
  const std::size_t idx = static_cast<std::size_t>(t.id()) % binding.sysnames.size();
  return binding.sysnames[idx];
}

Result<Value> Runtime::invoke(CloudsThread& t, const Sysname& object, const std::string& entry,
                              const ValueList& args) {
  Sysname target = object;
  Result<Value> last{Value{}};
  int chases = 0;
  for (int attempt = 0; attempt <= kTxRetries; ++attempt) {
    if (attempt > 0) {
      ++*m_tx_retries_;
      // Randomized exponential backoff breaks deadlock livelock (the
      // all-readers-upgrade pattern aborts everyone near-simultaneously;
      // wide jitter lets one retrier win each round).
      const std::int64_t cap =
          std::min<std::int64_t>(sim::msec(10).count() << std::min(attempt, 5),
                                 sim::msec(400).count());
      t.process->delay(sim::Duration(
          sim::msec(1).count() +
          static_cast<std::int64_t>(node_.simulation().uniform01() * static_cast<double>(cap))));
    }
    last = invokeOnce(t, target, entry, args);
    if (last.ok()) return last;
    // A not_found mid-invocation can mean the object migrated away after we
    // cached its activation (its old segments are gone). Confirm the header
    // stub and retry against the re-homed object; a chase is not a
    // transaction retry (no backoff, no attempt charged).
    if (last.code() == Errc::not_found && chases < migrate::kMaxForwardHops &&
        !t.scope.has_value()) {
      auto chased = chaseForward(*t.process, target);
      if (chased.ok()) {
        target = chased.value();
        ++chases;
        --attempt;
        continue;
      }
    }
    // Only retry deadlock aborts of a scope this call itself opened (an
    // inner abort propagates to the opener as an exception, never here).
    if (last.code() != Errc::deadlock) return last;
  }
  return last;
}

Result<Value> Runtime::invokeOnce(CloudsThread& t, const Sysname& object,
                                  const std::string& entry, const ValueList& args) {
  sim::Process& self = *t.process;
  ++*m_invocations_;
  node_.cpu().compute(self, node_.cost().syscall + node_.cost().invoke_locate);

  auto act = activate(self, object);
  if (!act.ok()) return act.error();
  ActiveObject* ao = act.value();
  // Migration drain gate: a draining object admits no NEW local invocations
  // (they park here until the drain ends — successfully, in which case the
  // re-activation below chases the forward stub to the new home, or not, in
  // which case the original activation is rebuilt). Re-entrant self-calls of
  // an already-executing thread pass through, else draining would deadlock
  // against its own in-flight work.
  const bool reentrant =
      std::find(t.call_stack.begin(), t.call_stack.end(), object) != t.call_stack.end() ||
      std::find(t.call_stack.begin(), t.call_stack.end(), ao->header) != t.call_stack.end();
  while (!reentrant && (draining_.count(object) != 0 || draining_.count(ao->header) != 0)) {
    drain_gate_.wait(self);
    // The drain deactivated the object; rebuild (or chase) the activation.
    act = activate(self, object);
    if (!act.ok()) return act.error();
    ao = act.value();
  }
  const ClassDef* def = classes_.find(ao->desc.class_name);
  if (def == nullptr) {
    return makeError(Errc::internal, "class not registered on this system: " +
                                         ao->desc.class_name);
  }
  EntryPointDef ctor_entry;
  const EntryPointDef* ep = nullptr;
  if (entry == "<ctor>") {
    ctor_entry = EntryPointDef{"<ctor>", OpLabel::s, def->constructor};
    ep = &ctor_entry;
  } else {
    ep = def->findEntry(entry);
  }
  if (ep == nullptr || !ep->fn) {
    return makeError(Errc::not_found, "no entry point " + entry + " in class " + def->name);
  }

  const bool opened = ep->label != OpLabel::s && !t.scope.has_value();
  if (opened) t.scope = txn_.open(ep->label);

  // No block point between the drain-gate check above and this increment
  // (cooperative scheduling), so a migrator cannot slip a drain in between:
  // from here on waitQuiesced counts this thread.
  ao->executing_threads += 1;
  ++heat_[ao->header];
  t.call_stack.push_back(object);
  t.label_stack.push_back(ep->label);
  struct Cleanup {
    Runtime* rt;
    ActiveObject* ao;
    CloudsThread* t;
    std::uint64_t epoch;
    ~Cleanup() {
      // A node crash destroys every activation before the killed threads
      // unwind; ao then dangles. The epoch mismatch detects that case.
      if (rt->activation_epoch_ == epoch) {
        ao->executing_threads -= 1;
        if (ao->executing_threads == 0 && rt->draining_.count(ao->header) != 0) {
          rt->quiesce_gate_.notifyAll();  // the migrator may be waiting on us
        }
      }
      t->call_stack.pop_back();
      t->label_stack.pop_back();
    }
  } cleanup{this, ao, &t, activation_epoch_};

  // Map the thread's stack into the object's space; on return it is
  // remapped into the caller (we charge both sides' costs).
  node_.cpu().compute(self, node_.cost().invoke_map_stack);

  // Demand-page the entry's working set: its code page plus the first data
  // and heap pages (the entry prologue reaches the object's static data and
  // allocator state). Cold objects fetch all of it from the data server;
  // hot ones hit the frame cache for free.
  {
    std::byte probe[8];
    auto paged = [&]() -> Result<void> {
      CLOUDS_TRY(mmu_.read(self, ao->space, kCodeBase, probe));
      CLOUDS_TRY(mmu_.read(self, ao->space, kDataBase, probe));
      CLOUDS_TRY(mmu_.read(self, ao->space, kPHeapBase, probe));
      return okResult();
    }();
    if (!paged.ok()) {
      // A failed probe (typically not_found: the object migrated away while
      // its activation was cached and the old segments are gone) must not
      // leak the scope this call just opened — a zombie scope would hold
      // locks until lease expiry and permanently disarm invoke()'s forward
      // chase, which is gated on !t.scope.
      if (opened) {
        (void)txn_.close(self, *t.scope, /*abort=*/true);
        t.scope.reset();
      }
      return paged.error();
    }
  }
  node_.cpu().compute(self, node_.cost().invoke_entry);

  ObjectContext ctx(*this, t, *ao);
  Result<Value> out{Value{}};
  bool aborted = false;
  Errc abort_code = Errc::aborted;
  try {
    out = ep->fn(ctx, args);
  } catch (const consistency::TxAborted& a) {
    if (!opened) throw;  // unwind to the scope's opener
    aborted = true;
    abort_code = a.code;
    out = makeError(a.code, a.reason);
  } catch (const CloudsFault& f) {
    out = f.error;
  }
  node_.cpu().compute(self, node_.cost().invoke_return);

  if (opened) {
    auto closed = txn_.close(self, *t.scope, aborted || !out.ok());
    t.scope.reset();
    if (!closed.ok() && out.ok()) out = closed.error();
    if (aborted && abort_code == Errc::deadlock) {
      out = makeError(Errc::deadlock, "transaction deadlock (retryable)");
    }
  }
  return out;
}

Result<Value> Runtime::invokeRemote(CloudsThread& t, net::NodeId compute_node,
                                    const Sysname& object, const std::string& entry,
                                    const ValueList& args) {
  if (t.scope.has_value()) {
    return makeError(Errc::bad_argument,
                     "a consistency scope cannot span a remote invocation");
  }
  sim::Process& self = *t.process;
  Encoder e;
  e.u64(t.id());
  e.u32(t.workstation());
  e.u32(t.window());
  e.sysname(object);
  e.str(entry);
  e.bytes(Value::encodeList(args));
  net::RatpOptions opts;
  opts.timeout = kRemoteInvokeTimeout;
  opts.max_retries = kRemoteInvokeRetries;
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, compute_node, net::kPortThread,
                                                 std::move(e).take(), opts));
  Decoder d(reply);
  CLOUDS_TRY_ASSIGN(status, d.u8());
  if (static_cast<Errc>(status) != Errc::ok) {
    CLOUDS_TRY_ASSIGN(message, d.str());
    return makeError(static_cast<Errc>(status), "remote invocation: " + message);
  }
  CLOUDS_TRY_ASSIGN(values, d.bytes());
  CLOUDS_TRY_ASSIGN(list, Value::decodeList(values));
  return list.empty() ? Value{} : list.front();
}

void Runtime::bindThreadService() {
  node_.ratp().bindService(
      net::kPortThread, [this](sim::Process& self, net::NodeId, const Bytes& request) {
        Encoder reply;
        Decoder d(request);
        auto tid = d.u64();
        auto ws = d.u32();
        auto window = d.u32();
        auto object = d.sysname();
        auto entry = d.str();
        auto argbytes = d.bytes();
        auto args = argbytes.ok() ? Value::decodeList(argbytes.value())
                                  : Result<ValueList>(makeError(Errc::bad_argument, "x"));
        if (!tid.ok() || !ws.ok() || !window.ok() || !object.ok() || !entry.ok() || !args.ok()) {
          reply.u8(static_cast<std::uint8_t>(Errc::bad_argument));
          reply.str("malformed remote invocation request");
          return std::move(reply).take();
        }
        ++*m_remote_invocations_;
        // A slave Clouds process carries the visiting thread's identity on
        // this node (paper: a thread "is implemented as a collection of
        // Clouds processes").
        CloudsThread& slave = adoptThread(tid.value(), ws.value(), window.value(), self);
        auto r = invoke(slave, object.value(), entry.value(), args.value());
        reapThread(slave);
        if (!r.ok()) {
          reply.u8(static_cast<std::uint8_t>(r.error().code));
          reply.str(r.error().message);
        } else {
          reply.u8(static_cast<std::uint8_t>(Errc::ok));
          reply.bytes(Value::encodeList({r.value()}));
        }
        return std::move(reply).take();
      });
}

CloudsThread& Runtime::adoptThread(std::uint64_t id, net::NodeId workstation,
                                   sysobj::WindowId window, sim::Process& proc) {
  auto t = std::make_unique<CloudsThread>(id, workstation, window);
  t->process = &proc;
  t->stack_seg = anon_.create(kStackSize);
  threads_.push_back(std::move(t));
  return *threads_.back();
}

void Runtime::reapThread(CloudsThread& t) {
  anon_.destroy(t.stack_seg);
  for (const auto& [obj, seg] : t.thread_local_segs) anon_.destroy(seg);
  std::erase_if(threads_, [&](const auto& p) { return p.get() == &t; });
}

std::shared_ptr<Runtime::ThreadHandle> Runtime::startThread(const Sysname& object,
                                                            const std::string& entry,
                                                            ValueList args,
                                                            net::NodeId workstation,
                                                            sysobj::WindowId window) {
  auto handle = std::make_shared<ThreadHandle>();
  const std::uint64_t id = (static_cast<std::uint64_t>(node_.id()) << 40) | next_thread_++;
  handle->thread_id = id;
  const sim::TimePoint started = node_.simulation().now();
  node_.spawnIsiBa("thread" + std::to_string(id & 0xffffff),
                   [this, handle, id, workstation, window, object, entry, started,
                    args = std::move(args)](sim::Process& self) {
                     CloudsThread& t = adoptThread(id, workstation, window, self);
                     handle->result = invoke(t, object, entry, args);
                     handle->done = true;
                     handle->completed_at = node_.simulation().now();
                     if (thread_completed_) thread_completed_(handle->completed_at - started);
                     reapThread(t);
                   });
  return handle;
}

void Runtime::spawnThread(const std::string& name, std::function<void(CloudsThread&)> body,
                          net::NodeId workstation, sysobj::WindowId window) {
  const std::uint64_t id = (static_cast<std::uint64_t>(node_.id()) << 40) | next_thread_++;
  node_.spawnIsiBa(name, [this, id, workstation, window, body = std::move(body)](
                             sim::Process& self) {
    CloudsThread& t = adoptThread(id, workstation, window, self);
    body(t);
    reapThread(t);
  });
}

std::shared_ptr<Runtime::ThreadHandle> Runtime::startThreadByName(
    const std::string& object_name, const std::string& entry, ValueList args,
    net::NodeId workstation, sysobj::WindowId window) {
  auto handle = std::make_shared<ThreadHandle>();
  const std::uint64_t id = (static_cast<std::uint64_t>(node_.id()) << 40) | next_thread_++;
  handle->thread_id = id;
  const sim::TimePoint started = node_.simulation().now();
  node_.spawnIsiBa("thread" + std::to_string(id & 0xffffff),
                   [this, handle, id, workstation, window, object_name, entry, started,
                    args = std::move(args)](sim::Process& self) {
                     CloudsThread& t = adoptThread(id, workstation, window, self);
                     handle->result = invokeByName(t, object_name, entry, args);
                     handle->done = true;
                     handle->completed_at = node_.simulation().now();
                     if (thread_completed_) thread_completed_(handle->completed_at - started);
                     reapThread(t);
                   });
  return handle;
}

// ================================================================ context

Result<void> ObjectContext::accessSegment(const Sysname& seg, ra::VAddr base,
                                          std::uint64_t limit, std::uint64_t off,
                                          std::size_t len, ra::Access access,
                                          std::byte* in_out, bool lockable) {
  if (off + len > limit) {
    return makeError(Errc::protection, "access beyond segment bounds (offset " +
                                           std::to_string(off) + " len " + std::to_string(len) +
                                           " limit " + std::to_string(limit) + ")");
  }
  if (lockable && t_.scope.has_value() && t_.currentLabel() != OpLabel::s) {
    rt_.txn_.onAccess(*t_.process, *t_.scope, seg, access);  // may throw TxAborted
  }
  if (access == ra::Access::write) {
    return rt_.mmu_.write(*t_.process, ao_.space, base + off, ByteSpan(in_out, len));
  }
  return rt_.mmu_.read(*t_.process, ao_.space, base + off, MutableByteSpan(in_out, len));
}

Result<void> ObjectContext::readData(std::uint64_t off, MutableByteSpan out) {
  return accessSegment(ao_.desc.data_seg, kDataBase, ao_.desc.data_size, off, out.size(),
                       ra::Access::read, out.data(), true);
}
Result<void> ObjectContext::writeData(std::uint64_t off, ByteSpan data) {
  return accessSegment(ao_.desc.data_seg, kDataBase, ao_.desc.data_size, off, data.size(),
                       ra::Access::write, const_cast<std::byte*>(data.data()), true);
}

Result<std::uint64_t> ObjectContext::palloc(std::uint64_t size) {
  if (size == 0) return makeError(Errc::bad_argument, "palloc(0)");
  if (t_.scope.has_value() && t_.currentLabel() != OpLabel::s) {
    rt_.txn_.onAccess(*t_.process, *t_.scope, ao_.desc.pheap_seg, ra::Access::write);
  }
  CLOUDS_TRY_ASSIGN(raw, rt_.mmu_.load<std::uint64_t>(*t_.process, ao_.space, kPHeapBase));
  std::uint64_t next = std::max(raw, kPHeapAllocatorReserved);
  const std::uint64_t aligned = (size + 7) / 8 * 8;
  if (next + aligned > ao_.desc.pheap_size) {
    return makeError(Errc::bad_argument, "persistent heap exhausted");
  }
  CLOUDS_TRY(rt_.mmu_.store<std::uint64_t>(*t_.process, ao_.space, kPHeapBase, next + aligned));
  return next;
}

Result<void> ObjectContext::readPHeap(std::uint64_t off, MutableByteSpan out) {
  return accessSegment(ao_.desc.pheap_seg, kPHeapBase, ao_.desc.pheap_size, off, out.size(),
                       ra::Access::read, out.data(), true);
}
Result<void> ObjectContext::writePHeap(std::uint64_t off, ByteSpan data) {
  return accessSegment(ao_.desc.pheap_seg, kPHeapBase, ao_.desc.pheap_size, off, data.size(),
                       ra::Access::write, const_cast<std::byte*>(data.data()), true);
}

Result<std::uint64_t> ObjectContext::valloc(std::uint64_t size) {
  if (size == 0) return makeError(Errc::bad_argument, "valloc(0)");
  const std::uint64_t aligned = (size + 7) / 8 * 8;
  if (ao_.vheap_next + aligned > ao_.desc.vheap_size) {
    return makeError(Errc::bad_argument, "volatile heap exhausted");
  }
  const std::uint64_t off = ao_.vheap_next;
  ao_.vheap_next += aligned;
  return off;
}

Result<void> ObjectContext::readVHeap(std::uint64_t off, MutableByteSpan out) {
  return accessSegment(ao_.vheap_seg, kVHeapBase, ao_.desc.vheap_size, off, out.size(),
                       ra::Access::read, out.data(), false);
}
Result<void> ObjectContext::writeVHeap(std::uint64_t off, ByteSpan data) {
  return accessSegment(ao_.vheap_seg, kVHeapBase, ao_.desc.vheap_size, off, data.size(),
                       ra::Access::write, const_cast<std::byte*>(data.data()), false);
}

// Chunked access to a node-local anonymous segment (per-thread and
// per-invocation memory), handling page-spanning transfers. `in` non-null
// selects a write of out.size() bytes from `in`.
Result<void> ObjectContext::accessAnon(const Sysname& seg, std::uint64_t limit,
                                       std::uint64_t off, MutableByteSpan out,
                                       const std::byte* in) {
  const std::size_t total = out.size();
  if (off + total > limit) {
    return makeError(Errc::protection, "thread/invocation memory access out of range");
  }
  std::size_t done = 0;
  while (done < total) {
    const std::uint64_t pos = off + done;
    const std::size_t chunk =
        std::min<std::size_t>(total - done, ra::kPageSize - pos % ra::kPageSize);
    const ra::PageKey key{seg, static_cast<ra::PageIndex>(pos / ra::kPageSize)};
    CLOUDS_TRY_ASSIGN(h, rt_.anon_.resolvePage(
                             *t_.process, key,
                             in != nullptr ? ra::Access::write : ra::Access::read));
    if (in != nullptr) {
      std::memcpy(h.data + pos % ra::kPageSize, in + done, chunk);
    } else {
      std::memcpy(out.data() + done, h.data + pos % ra::kPageSize, chunk);
    }
    done += chunk;
  }
  return okResult();
}

Result<void> ObjectContext::readTls(std::uint64_t off, MutableByteSpan out) {
  auto [it, inserted] = t_.thread_local_segs.try_emplace(ao_.header);
  if (inserted) it->second = rt_.anon_.create(kThreadLocalSize);
  return accessAnon(it->second, kThreadLocalSize, off, out, nullptr);
}
Result<void> ObjectContext::writeTls(std::uint64_t off, ByteSpan data) {
  auto [it, inserted] = t_.thread_local_segs.try_emplace(ao_.header);
  if (inserted) it->second = rt_.anon_.create(kThreadLocalSize);
  MutableByteSpan sized(const_cast<std::byte*>(data.data()), data.size());
  return accessAnon(it->second, kThreadLocalSize, off, sized, data.data());
}

Result<void> ObjectContext::readInv(std::uint64_t off, MutableByteSpan out) {
  if (inv_seg_.isNull()) inv_seg_ = rt_.anon_.create(kThreadLocalSize);
  return accessAnon(inv_seg_, kThreadLocalSize, off, out, nullptr);
}
Result<void> ObjectContext::writeInv(std::uint64_t off, ByteSpan data) {
  if (inv_seg_.isNull()) inv_seg_ = rt_.anon_.create(kThreadLocalSize);
  MutableByteSpan sized(const_cast<std::byte*>(data.data()), data.size());
  return accessAnon(inv_seg_, kThreadLocalSize, off, sized, data.data());
}

ObjectContext::~ObjectContext() {
  // Per-invocation memory dies with the invocation (paper §5.1).
  if (!inv_seg_.isNull()) rt_.anon_.destroy(inv_seg_);
}

Result<Value> ObjectContext::call(const std::string& object_name, const std::string& entry,
                                  const ValueList& args) {
  return rt_.invokeByName(t_, object_name, entry, args);
}
Result<Value> ObjectContext::callObject(const Sysname& object, const std::string& entry,
                                        const ValueList& args) {
  return rt_.invoke(t_, object, entry, args);
}
Result<Value> ObjectContext::callRemote(net::NodeId compute_node, const Sysname& object,
                                        const std::string& entry, const ValueList& args) {
  return rt_.invokeRemote(t_, compute_node, object, entry, args);
}
Result<Sysname> ObjectContext::createObject(const std::string& class_name,
                                            net::NodeId data_server,
                                            const std::string& user_name) {
  return rt_.createObject(t_, class_name, data_server, user_name);
}

Result<void> ObjectContext::spawn(const std::string& object_name, const std::string& entry,
                                  ValueList args) {
  (void)rt_.startThreadByName(object_name, entry, std::move(args), t_.workstation(),
                              t_.window());
  return okResult();
}

void ObjectContext::compute(sim::Duration work) { rt_.node_.cpu().compute(*t_.process, work); }

void ObjectContext::print(const std::string& text) {
  if (t_.workstation() == net::kNoNode) {
    rt_.node_.simulation().trace(rt_.node_.name(), "tty", text);
    return;
  }
  (void)rt_.io_.write(*t_.process, t_.workstation(), t_.window(), text);
}

Result<std::string> ObjectContext::readLine() {
  if (t_.workstation() == net::kNoNode) {
    return makeError(Errc::not_found, "thread has no controlling terminal");
  }
  return rt_.io_.readLine(*t_.process, t_.workstation(), t_.window());
}

net::NodeId ObjectContext::nodeId() const noexcept { return rt_.node_.id(); }

Result<std::uint64_t> ObjectContext::semCreate(std::int64_t initial) {
  return rt_.sync_.semCreate(*t_.process, ra::sysnameHome(ao_.desc.data_seg), initial);
}
Result<void> ObjectContext::semP(std::uint64_t sem) { return rt_.sync_.semP(*t_.process, sem); }
Result<void> ObjectContext::semV(std::uint64_t sem) { return rt_.sync_.semV(*t_.process, sem); }

}  // namespace clouds::obj
