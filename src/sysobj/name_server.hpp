// The Clouds name server (paper §2.1, §2.4).
//
// "Users can define high-level names for objects. These are translated to
//  sysnames using a name server." Bindings map a user-level string to one
//  sysname (a plain object) or several (a PET replica set, §5.2.2). The
//  server runs on a data server node; class code segments are also
//  registered here (under "class:<name>") so any node can instantiate.
//
// NameClient reaches it over RaTP (kPortNaming). NameRequest and NameReply
// state the wire layouts once, as field lists (common/codec.hpp) that the
// client and NameServer::serve both walk.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "ra/node.hpp"

namespace clouds::sysobj {

struct Binding {
  std::vector<Sysname> sysnames;  // size 1 = plain object; >1 = replica set
  bool isReplicated() const noexcept { return sysnames.size() > 1; }

  // A binding as the name snapshot holds it.
  template <typename B, typename F>
  static void fields(B& b, F& f) {
    f(b.sysnames);
  }
};

enum class NameOp : std::uint8_t { bind = 50, lookup = 51, unbind = 52, list = 53, forward = 54 };

// The op, then the fields it calls for.
struct NameRequest {
  NameOp op{};
  std::string name{};               // bind, lookup, unbind
  bool replace = false;             // bind
  std::vector<Sysname> sysnames{};  // bind
  Sysname from{};                   // forward
  Sysname to{};                     // forward

  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(r.op);
    switch (r.op) {
      case NameOp::bind:
        f(r.name);
        f(r.replace);
        f(r.sysnames);
        return;
      case NameOp::lookup:
      case NameOp::unbind:
        f(r.name);
        return;
      case NameOp::list:
        return;
      case NameOp::forward:
        f(r.from);
        f(r.to);
        return;
    }
    f.require(false, "unknown name op");
  }
};

// The status, then, when ok, a lookup's binding or the list.
struct NameReply {
  NameOp op{};  // the request's; not on the wire
  Errc status = Errc::ok;
  std::vector<Sysname> sysnames{};  // lookup
  std::vector<std::string> names{};  // list

  template <typename R, typename F>
  static void fields(R& r, F& f) {
    f(r.status);
    if (r.status != Errc::ok) return;
    if (r.op == NameOp::lookup) f(r.sysnames);
    if (r.op == NameOp::list) f(r.names);
  }
};

class NameServer {
 public:
  explicit NameServer(ra::Node& node);

  // Direct (local) access for tests and bootstrap.
  Result<void> bind(const std::string& name, Binding binding, bool replace = false);
  // Non-const: resolving a name chases (and collapses) forwarding entries.
  Result<Binding> lookup(const std::string& name);
  Result<void> unbind(const std::string& name);
  std::vector<std::string> list() const;

  // Migration forwarding: sysname `from` has been re-homed as `to`. The
  // next lookup that resolves to `from` is rewritten to `to` and the entry
  // is consumed ("resolve exactly once, then collapse" — the binding itself
  // becomes the fast path afterwards). Re-migrations chain; chains longer
  // than kMaxForwardChain indicate a cycle and fail the lookup.
  Result<void> addForward(const Sysname& from, const Sysname& to);
  std::size_t forwardCount() const noexcept { return forwards_.size(); }

  // Snapshot the name map to / from a host file (the prototype stored its
  // durable state "in Unix files"; the cluster façade snapshots names
  // alongside the data servers' stores at shutdown).
  Result<void> saveTo(const std::string& path) const;
  Result<void> loadFrom(const std::string& path);

 private:
  Message serve(sim::Process& self, const Message& message);
  // Follow the forward chain from `s` without mutating the table, appending
  // every link walked to `consumed`. The caller erases the consumed links
  // only once the whole lookup succeeds, so a failed resolve leaves the
  // server state untouched and a retry resolves identically.
  Result<Sysname> chaseForwards(const Sysname& s, std::vector<Sysname>& consumed) const;

  ra::Node& node_;
  std::map<std::string, Binding> bindings_;
  std::map<Sysname, Sysname> forwards_;  // old sysname -> re-homed sysname
  std::uint64_t* m_forwards_installed_;
  std::uint64_t* m_forwards_collapsed_;
};

// Client stub usable from any node.
class NameClient {
 public:
  NameClient(ra::Node& node, net::NodeId name_server) : node_(node), server_(name_server) {}

  Result<void> bind(sim::Process& self, const std::string& name,
                    const std::vector<Sysname>& sysnames, bool replace = false);
  Result<Binding> lookup(sim::Process& self, const std::string& name);
  Result<void> unbind(sim::Process& self, const std::string& name);
  Result<std::vector<std::string>> list(sim::Process& self);
  // Install a migration forwarding entry (old sysname -> new sysname).
  Result<void> forward(sim::Process& self, const Sysname& from, const Sysname& to);

 private:
  // One request and its reply; a failed status is the error, reported as
  // "<what> failed at name server".
  Result<NameReply> call(sim::Process& self, const NameRequest& request, const char* what);

  ra::Node& node_;
  net::NodeId server_;
};

}  // namespace clouds::sysobj
