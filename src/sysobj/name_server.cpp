#include "sysobj/name_server.hpp"

namespace clouds::sysobj {

namespace {
enum class NameOp : std::uint8_t { bind = 50, lookup = 51, unbind = 52, list = 53, forward = 54 };

// A forward chain grows one link per re-migration of the same object; more
// hops than this means a cycle.
constexpr int kMaxForwardChain = 8;

// Name-snapshot magic: bindings, then forwards. A file under any other
// magic is refused.
constexpr std::uint32_t kSnapshotMagic = 0xC10D7A3Fu;

void encodeStatus(Encoder& e, Errc c) { e.u8(static_cast<std::uint8_t>(c)); }

Result<void> decodeStatus(Decoder& d, const char* what) {
  CLOUDS_TRY_ASSIGN(s, d.u8());
  const auto code = static_cast<Errc>(s);
  if (code != Errc::ok) return makeError(code, std::string(what) + " failed at name server");
  return okResult();
}
}  // namespace

NameServer::NameServer(ra::Node& node) : node_(node) {
  sim::MetricsRegistry& metrics = node_.simulation().metrics();
  m_forwards_installed_ = &metrics.counter(node_.name() + "/names/forwards_installed");
  m_forwards_collapsed_ = &metrics.counter(node_.name() + "/names/forwards_collapsed");
  node_.ratp().bindService(net::kPortNaming,
                           [this](sim::Process& self, net::NodeId, const Bytes& request) {
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
  Encoder e;
  e.u32(kSnapshotMagic);
  e.u32(static_cast<std::uint32_t>(bindings_.size()));
  for (const auto& [name, binding] : bindings_) {
    e.str(name);
    e.u32(static_cast<std::uint32_t>(binding.sysnames.size()));
    for (const Sysname& s : binding.sysnames) e.sysname(s);
  }
  e.u32(static_cast<std::uint32_t>(forwards_.size()));
  for (const auto& [from, to] : forwards_) {
    e.sysname(from);
    e.sysname(to);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return makeError(Errc::io, "cannot open " + path);
  const bool ok = std::fwrite(e.buffer().data(), 1, e.size(), f) == e.size();
  std::fclose(f);
  if (!ok) return makeError(Errc::io, "short write to " + path);
  return okResult();
}

Result<void> NameServer::loadFrom(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return makeError(Errc::io, "cannot open " + path);
  Bytes buf;
  std::byte tmp[16384];
  std::size_t n = 0;
  while ((n = std::fread(tmp, 1, sizeof(tmp), f)) > 0) buf.insert(buf.end(), tmp, tmp + n);
  std::fclose(f);
  Decoder d(buf);
  CLOUDS_TRY_ASSIGN(magic, d.u32());
  if (magic != kSnapshotMagic) return makeError(Errc::io, "bad name snapshot in " + path);
  CLOUDS_TRY_ASSIGN(count, d.u32());
  std::map<std::string, Binding> loaded;
  for (std::uint32_t i = 0; i < count; ++i) {
    CLOUDS_TRY_ASSIGN(name, d.str());
    CLOUDS_TRY_ASSIGN(reps, d.u32());
    Binding b;
    for (std::uint32_t r = 0; r < reps; ++r) {
      CLOUDS_TRY_ASSIGN(s, d.sysname());
      b.sysnames.push_back(s);
    }
    loaded.emplace(std::move(name), std::move(b));
  }
  std::map<Sysname, Sysname> fwd_loaded;
  CLOUDS_TRY_ASSIGN(fwds, d.u32());
  for (std::uint32_t i = 0; i < fwds; ++i) {
    CLOUDS_TRY_ASSIGN(from, d.sysname());
    CLOUDS_TRY_ASSIGN(to, d.sysname());
    fwd_loaded.emplace(from, to);
  }
  bindings_ = std::move(loaded);
  forwards_ = std::move(fwd_loaded);
  return okResult();
}

Bytes NameServer::serve(sim::Process& self, const Bytes& request) {
  node_.cpu().compute(self, node_.cost().dsm_server_lookup);
  Decoder d(request);
  Encoder reply;
  auto op = d.u8();
  if (!op.ok()) {
    encodeStatus(reply, Errc::bad_argument);
    return std::move(reply).take();
  }
  switch (static_cast<NameOp>(op.value())) {
    case NameOp::bind: {
      auto name = d.str();
      auto replace = d.boolean();
      auto count = d.u32();
      if (!name.ok() || !replace.ok() || !count.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      Binding b;
      bool bad = false;
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto s = d.sysname();
        if (!s.ok()) {
          bad = true;
          break;
        }
        b.sysnames.push_back(s.value());
      }
      if (bad) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, bind(name.value(), std::move(b), replace.value()).code());
      break;
    }
    case NameOp::lookup: {
      auto name = d.str();
      if (!name.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      auto r = lookup(name.value());
      encodeStatus(reply, r.code());
      if (r.ok()) {
        reply.u32(static_cast<std::uint32_t>(r.value().sysnames.size()));
        for (const Sysname& s : r.value().sysnames) reply.sysname(s);
      }
      break;
    }
    case NameOp::unbind: {
      auto name = d.str();
      if (!name.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, unbind(name.value()).code());
      break;
    }
    case NameOp::list: {
      encodeStatus(reply, Errc::ok);
      const auto names = list();
      reply.u32(static_cast<std::uint32_t>(names.size()));
      for (const auto& n : names) reply.str(n);
      break;
    }
    case NameOp::forward: {
      auto from = d.sysname();
      auto to = d.sysname();
      if (!from.ok() || !to.ok()) {
        encodeStatus(reply, Errc::bad_argument);
        break;
      }
      encodeStatus(reply, addForward(from.value(), to.value()).code());
      break;
    }
    default:
      encodeStatus(reply, Errc::bad_argument);
  }
  return std::move(reply).take();
}

// ---------------------------------------------------------------- client

Result<void> NameClient::bind(sim::Process& self, const std::string& name,
                              const std::vector<Sysname>& sysnames, bool replace) {
  Encoder e;
  e.u8(50);
  e.str(name);
  e.boolean(replace);
  e.u32(static_cast<std::uint32_t>(sysnames.size()));
  for (const Sysname& s : sysnames) e.sysname(s);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server_, net::kPortNaming,
                                                 std::move(e).take()));
  Decoder d(reply);
  return decodeStatus(d, "bind");
}

Result<Binding> NameClient::lookup(sim::Process& self, const std::string& name) {
  Encoder e;
  e.u8(51);
  e.str(name);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server_, net::kPortNaming,
                                                 std::move(e).take()));
  Decoder d(reply);
  CLOUDS_TRY(decodeStatus(d, "lookup"));
  CLOUDS_TRY_ASSIGN(count, d.u32());
  Binding b;
  for (std::uint32_t i = 0; i < count; ++i) {
    CLOUDS_TRY_ASSIGN(s, d.sysname());
    b.sysnames.push_back(s);
  }
  return b;
}

Result<void> NameClient::unbind(sim::Process& self, const std::string& name) {
  Encoder e;
  e.u8(52);
  e.str(name);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server_, net::kPortNaming,
                                                 std::move(e).take()));
  Decoder d(reply);
  return decodeStatus(d, "unbind");
}

Result<void> NameClient::forward(sim::Process& self, const Sysname& from, const Sysname& to) {
  Encoder e;
  e.u8(54);
  e.sysname(from);
  e.sysname(to);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server_, net::kPortNaming,
                                                 std::move(e).take()));
  Decoder d(reply);
  return decodeStatus(d, "forward");
}

Result<std::vector<std::string>> NameClient::list(sim::Process& self) {
  Encoder e;
  e.u8(53);
  CLOUDS_TRY_ASSIGN(reply, node_.ratp().transact(self, server_, net::kPortNaming,
                                                 std::move(e).take()));
  Decoder d(reply);
  CLOUDS_TRY(decodeStatus(d, "list"));
  CLOUDS_TRY_ASSIGN(count, d.u32());
  std::vector<std::string> names;
  for (std::uint32_t i = 0; i < count; ++i) {
    CLOUDS_TRY_ASSIGN(n, d.str());
    names.push_back(std::move(n));
  }
  return names;
}

}  // namespace clouds::sysobj
