#include "sysobj/name_server.hpp"

namespace clouds::sysobj {

namespace {
// A forward chain grows one link per re-migration of the same object; more
// hops than this means a cycle.
constexpr int kMaxForwardChain = 8;

// A name snapshot (docs/STORAGE.md): the magic, the bindings, then the
// forwards. A file under any other magic is refused.
struct NameSnapshot {
  std::map<std::string, Binding> bindings;
  std::map<Sysname, Sysname> forwards;

  template <typename S, typename F>
  static void fields(S& s, F& f) {
    f(codec::Constant{0xC10D7A3Fu, "bad name snapshot"});
    f(s.bindings);
    f(s.forwards);
  }
};
}  // namespace

NameServer::NameServer(ra::Node& node) : node_(node) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_forwards_installed_ = &metrics.counter(node_.name() + "/names/forwards_installed");
  m_forwards_collapsed_ = &metrics.counter(node_.name() + "/names/forwards_collapsed");
  node_.ratp().bindService(net::kPortNaming,
                           [this](sim::Process& self, net::NodeId, const Message& request) {
                             return serve(self, request);
                           });
}

Result<void> NameServer::bind(const std::string& name, Binding binding, bool replace) {
  if (name.empty() || binding.sysnames.empty()) {
    return makeError(Errc::bad_argument, "empty name or binding");
  }
  if (!replace && bindings_.count(name) != 0) {
    return makeError(Errc::already_exists, "name already bound: " + name);
  }
  bindings_[name] = std::move(binding);
  return okResult();
}

Result<Binding> NameServer::lookup(const std::string& name) {
  auto it = bindings_.find(name);
  if (it == bindings_.end()) return makeError(Errc::not_found, "unbound name: " + name);
  // Chase forwarding entries left by migrations. The chase is read-only;
  // only after every sysname of the binding resolves do we erase the
  // consumed links and rewrite the binding in place, so a failed lookup
  // (overlong chain on any replica) mutates nothing and the *next*
  // successful lookup still takes the fast path with no forwarding state
  // left behind.
  std::vector<Sysname> resolved;
  std::vector<Sysname> consumed;
  resolved.reserve(it->second.sysnames.size());
  for (const Sysname& s : it->second.sysnames) {
    CLOUDS_TRY_ASSIGN(r, chaseForwards(s, consumed));
    resolved.push_back(r);
  }
  for (const Sysname& link : consumed) {
    if (forwards_.erase(link) != 0) ++*m_forwards_collapsed_;
  }
  it->second.sysnames = std::move(resolved);
  return it->second;
}

Result<Sysname> NameServer::chaseForwards(const Sysname& s,
                                          std::vector<Sysname>& consumed) const {
  Sysname cur = s;
  for (int hop = 0; hop <= kMaxForwardChain; ++hop) {
    auto f = forwards_.find(cur);
    if (f == forwards_.end()) return cur;
    consumed.push_back(cur);
    cur = f->second;
  }
  return makeError(Errc::internal, "forward chain from " + s.toString() + " exceeds " +
                                       std::to_string(kMaxForwardChain) + " hops");
}

Result<void> NameServer::addForward(const Sysname& from, const Sysname& to) {
  if (from == Sysname() || to == Sysname() || from == to) {
    return makeError(Errc::bad_argument, "bad forward " + from.toString() + " -> " + to.toString());
  }
  // Overwrite is legal: a re-migration of a not-yet-looked-up object simply
  // repoints the stale entry (the durable header stubs still chain).
  forwards_[from] = to;
  ++*m_forwards_installed_;
  return okResult();
}

Result<void> NameServer::unbind(const std::string& name) {
  if (bindings_.erase(name) == 0) return makeError(Errc::not_found, "unbound name: " + name);
  return okResult();
}

std::vector<std::string> NameServer::list() const {
  std::vector<std::string> out;
  out.reserve(bindings_.size());
  for (const auto& [name, _] : bindings_) out.push_back(name);
  return out;
}

Result<void> NameServer::saveTo(const std::string& path) const {
  return writeHostFile(path, codec::encode(NameSnapshot{bindings_, forwards_}).take());
}

Result<void> NameServer::loadFrom(const std::string& path) {
  CLOUDS_TRY_ASSIGN(buf, readHostFile(path));
  // Every refusal, a file cut short among them, is an I/O error.
  auto read = codec::decode<NameSnapshot>(buf);
  if (!read.ok()) return makeError(Errc::io, read.error().message + " in " + path);
  bindings_ = std::move(read.value().bindings);
  forwards_ = std::move(read.value().forwards);
  return okResult();
}

Message NameServer::serve(sim::Process& self, const Message& message) {
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  auto request = codec::decode<NameRequest>(message);
  if (!request.ok()) return codec::encode(NameReply{.status = Errc::bad_argument}).message();
  NameRequest& r = request.value();
  NameReply reply{.op = r.op};
  switch (r.op) {
    case NameOp::bind:
      reply.status = bind(r.name, {std::move(r.sysnames)}, r.replace).code();
      break;
    case NameOp::lookup: {
      auto found = lookup(r.name);
      reply.status = found.code();
      if (found.ok()) reply.sysnames = std::move(found.value().sysnames);
      break;
    }
    case NameOp::unbind:
      reply.status = unbind(r.name).code();
      break;
    case NameOp::list:
      reply.names = list();
      break;
    case NameOp::forward:
      reply.status = addForward(r.from, r.to).code();
      break;
  }
  return codec::encode(reply).message();
}

// ---------------------------------------------------------------- client

Result<NameReply> NameClient::call(sim::Process& self, const NameRequest& request,
                                   const char* what) {
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server_, net::kPortNaming,
                                                 codec::encode(request).message()));
  return codec::decodeReply(reply, NameReply{.op = request.op}, [what](const NameReply&) {
    return std::string(what) + " failed at name server";
  });
}

Result<void> NameClient::bind(sim::Process& self, const std::string& name,
                              const std::vector<Sysname>& sysnames, bool replace) {
  CLOUDS_TRY(call(
      self, {.op = NameOp::bind, .name = name, .replace = replace, .sysnames = sysnames}, "bind"));
  return okResult();
}

Result<Binding> NameClient::lookup(sim::Process& self, const std::string& name) {
  CLOUDS_TRY_ASSIGN(reply, call(self, {.op = NameOp::lookup, .name = name}, "lookup"));
  return Binding{std::move(reply.sysnames)};
}

Result<void> NameClient::unbind(sim::Process& self, const std::string& name) {
  CLOUDS_TRY(call(self, {.op = NameOp::unbind, .name = name}, "unbind"));
  return okResult();
}

Result<void> NameClient::forward(sim::Process& self, const Sysname& from, const Sysname& to) {
  CLOUDS_TRY(call(self, {.op = NameOp::forward, .from = from, .to = to}, "forward"));
  return okResult();
}

Result<std::vector<std::string>> NameClient::list(sim::Process& self) {
  CLOUDS_TRY_ASSIGN(reply, call(self, {.op = NameOp::list}, "list"));
  return std::move(reply.names);
}

}  // namespace clouds::sysobj
