// GossipAgent — the load dissemination protocol.
//
// Every compute server runs a gossip loop (an IsiBa): on each tick it
// samples its LoadMonitor and broadcasts one LoadReport frame on the shared
// Ethernet (protocol net::kProtoSched). Every participating node — compute
// server, data server or workstation — binds a receive handler that folds
// arriving reports into its local LoadTable. Load knowledge therefore only
// moves as messages: a partitioned or crashed server simply stops being
// heard, its entries age out, and schedulers degrade to their stale view.
//
// The loop is the node's daemon IsiBa (ra::Node::spawnDaemon): its tick is
// a daemon event, so periodic gossip does not keep "drain the cluster" run()
// loops alive, and it dies with the node and comes back with it. The crash
// hook clears the volatile LoadTable.
#pragma once

#include <cstdint>

#include "ra/node.hpp"
#include "sched/load_table.hpp"
#include "sched/monitor.hpp"

namespace clouds::sched {

class GossipAgent {
 public:
  // `monitor` == nullptr makes this a pure listener (receives reports but
  // never broadcasts): workstations and data servers observe, compute
  // servers participate, every `gossip_interval` of the table's options
  // while `gossip` is set. A sender's first tick comes at an offset derived
  // from its node id, so the fleet's broadcasts do not collide on one tick.
  GossipAgent(ra::Node& node, LoadTable& table, LoadMonitor* monitor);

 private:
  void broadcast(sim::Process& self);
  void onFrame(const net::Frame& frame);

  ra::Node& node_;
  LoadTable& table_;
  LoadMonitor* monitor_;
  std::uint64_t seq_ = 0;  // monotone across restarts
  std::uint64_t* m_sent_;
  std::uint64_t* m_received_;
};

}  // namespace clouds::sched
