#include "net/comparators.hpp"

#include <algorithm>

namespace clouds::net {

namespace {

constexpr sim::Duration kCompareTimeout = sim::sec(10);

}  // namespace

// ---------------------------------------------------------------- NfsSim

NfsSim::NfsSim(Nic& nic, std::string name) : nic_(nic), name_(std::move(name)) {
  nic_.setHandler(kProtoUnixUdp,
                  [this](sim::Process& self, const Frame& f) { onFrame(self, f); });
}

Result<Bytes> NfsSim::read(sim::Process& self, NodeId server, std::uint64_t file_id,
                           std::uint64_t offset, std::uint32_t length) {
  const auto& cost = nic_.network().cost();
  const std::uint32_t xid = next_xid_++;
  PendingRead& pr = pending_[xid];
  pr.waiter = &self;
  pr.expected = length;

  const NfsFrame request{
      .type = NfsMsg::read_req, .xid = xid, .file = file_id, .offset = offset, .length = length};
  nic_.cpu().compute(self, cost.unix_udp_cpu_packet);
  nic_.send(self, Frame{kNoNode, server, kProtoUnixUdp, codec::encode(request).take()});

  const sim::TimePoint deadline = nic_.network().simulation().now() + kCompareTimeout;
  while (!pr.complete && nic_.network().simulation().now() < deadline) {
    (void)self.blockFor(deadline - nic_.network().simulation().now());
  }
  Bytes data = std::move(pr.data);
  const bool complete = pr.complete;
  pending_.erase(xid);
  if (!complete) return makeError(Errc::timeout, name_ + ": NFS read timed out");
  return data;
}

void NfsSim::onFrame(sim::Process& self, const Frame& frame) {
  const auto& cost = nic_.network().cost();
  auto in = codec::decode<NfsFrame>(frame.payload);
  if (!in.ok()) return;
  const NfsFrame& m = in.value();
  switch (m.type) {
    case NfsMsg::read_req: {
      if (!reader_) return;
      // nfsd path: UDP receive + RPC/XDR decode + synchronous file access.
      nic_.cpu().compute(self, cost.unix_udp_cpu_packet + cost.nfs_rpc_overhead);
      self.delay(cost.nfs_file_access);
      const Bytes data = reader_(m.file, m.offset, m.length);
      // Reply datagram, IP-fragmented onto the wire.
      const std::size_t capacity = cost.eth_mtu - kUdpHeader;
      const auto count = static_cast<std::uint16_t>(
          std::max<std::size_t>(1, (data.size() + capacity - 1) / capacity));
      NfsFrame reply{.type = NfsMsg::read_data, .xid = m.xid, .count = count};
      for (std::uint16_t i = 0; i < count; ++i) {
        const std::size_t off = static_cast<std::size_t>(i) * capacity;
        reply.index = i;
        const auto from = data.begin() + static_cast<std::ptrdiff_t>(off);
        reply.data.assign(from, from + static_cast<std::ptrdiff_t>(
                                           std::min(capacity, data.size() - off)));
        nic_.cpu().compute(self, cost.unix_udp_cpu_packet);
        nic_.send(self, Frame{kNoNode, frame.src, kProtoUnixUdp, codec::encode(reply).take()});
      }
      break;
    }
    case NfsMsg::read_data: {
      nic_.cpu().compute(self, cost.unix_udp_cpu_packet);
      auto it = pending_.find(m.xid);
      if (it == pending_.end()) return;
      PendingRead& pr = it->second;
      pr.data.insert(pr.data.end(), m.data.begin(), m.data.end());
      if (m.index + 1 == m.count) {
        pr.complete = true;
        pr.waiter->wake();
      }
      break;
    }
  }
}

// ---------------------------------------------------------------- FtpSim

FtpSim::FtpSim(Nic& nic, std::string name) : nic_(nic), name_(std::move(name)) {
  nic_.setHandler(kProtoUnixTcp,
                  [this](sim::Process& self, const Frame& f) { onFrame(self, f); });
}

Result<Bytes> FtpSim::retrieve(sim::Process& self, NodeId server, std::uint64_t file_id,
                               std::uint32_t length) {
  const auto& cost = nic_.network().cost();
  const std::uint32_t conn = next_conn_++;
  Transfer& t = transfers_[conn];
  t.waiter = &self;

  auto sendCtl = [&](FtpFrame message) {
    message.conn = conn;
    nic_.cpu().compute(self, cost.unix_tcp_cpu_packet);
    nic_.send(self, Frame{kNoNode, server, kProtoUnixTcp, codec::encode(message).take()});
  };

  const sim::TimePoint deadline = nic_.network().simulation().now() + kCompareTimeout;
  auto waitFor = [&](bool& flag) {
    while (!flag && nic_.network().simulation().now() < deadline) {
      (void)self.blockFor(deadline - nic_.network().simulation().now());
    }
    return flag;
  };

  // Connection establishment (handshake; server pays fork + setup on SYN).
  sendCtl({.type = FtpMsg::syn});
  if (!waitFor(t.connected)) {
    transfers_.erase(conn);
    return makeError(Errc::timeout, name_ + ": FTP connect timed out");
  }
  // Request the file; data arrives stop-and-wait, acked per segment by the
  // client-side frame handler.
  sendCtl({.type = FtpMsg::get, .file = file_id, .length = length});
  const bool ok = waitFor(t.complete);
  Bytes data = std::move(t.data);
  transfers_.erase(conn);
  if (!ok) return makeError(Errc::timeout, name_ + ": FTP transfer timed out");
  return data;
}

void FtpSim::onFrame(sim::Process& self, const Frame& frame) {
  const auto& cost = nic_.network().cost();
  auto in = codec::decode<FtpFrame>(frame.payload);
  if (!in.ok()) return;
  const FtpFrame& m = in.value();
  const std::uint32_t conn = m.conn;
  auto reply = [&](FtpMsg type) {
    return Frame{kNoNode, frame.src, kProtoUnixTcp,
                 codec::encode(FtpFrame{.type = type, .conn = conn}).take()};
  };
  switch (m.type) {
    case FtpMsg::syn: {
      // Server: accept + fork the data-transfer daughter process.
      nic_.cpu().compute(self, cost.unix_tcp_cpu_packet);
      self.delay(cost.ftp_connection_setup);
      nic_.cpu().compute(self, cost.unix_tcp_cpu_packet);
      nic_.send(self, reply(FtpMsg::synack));
      break;
    }
    case FtpMsg::synack: {
      nic_.cpu().compute(self, cost.unix_tcp_cpu_packet);
      auto it = transfers_.find(conn);
      if (it == transfers_.end()) return;
      it->second.connected = true;
      it->second.waiter->wake();
      break;
    }
    case FtpMsg::get: {
      if (!reader_) return;
      nic_.cpu().compute(self, cost.unix_tcp_cpu_packet);
      Bytes data = reader_(m.file, 0, m.length);
      // The forked server process runs the stop-and-wait transfer so the
      // NIC receive path stays free to process the client's ACKs.
      const NodeId client = frame.src;
      Transfer& st = transfers_[conn];  // server-side bookkeeping for ACK waits
      st.connected = true;
      nic_.network().simulation().spawn(
          name_ + ".ftpd" + std::to_string(conn),
          [this, c = conn, client, data = std::move(data)](sim::Process& sender) {
            const auto& cm = nic_.network().cost();
            const std::size_t capacity = cm.eth_mtu - 64;  // TCP/IP header allowance
            const std::size_t count =
                std::max<std::size_t>(1, (data.size() + capacity - 1) / capacity);
            FtpFrame segment{
                .type = FtpMsg::data, .conn = c, .count = static_cast<std::uint16_t>(count)};
            for (std::size_t i = 0; i < count; ++i) {
              const std::size_t off = i * capacity;
              segment.index = static_cast<std::uint16_t>(i);
              const auto from = data.begin() + static_cast<std::ptrdiff_t>(off);
              segment.data.assign(from, from + static_cast<std::ptrdiff_t>(
                                                   std::min(capacity, data.size() - off)));
              Transfer& t = transfers_[c];
              t.waiter = &sender;
              t.segment_acked = false;
              nic_.cpu().compute(sender, cm.unix_tcp_cpu_packet + cm.ftp_per_block_overhead);
              nic_.send(sender,
                        Frame{kNoNode, client, kProtoUnixTcp, codec::encode(segment).take()});
              // Stop-and-wait: block until the client's ACK.
              while (!transfers_[c].segment_acked) {
                if (!sender.blockFor(kCompareTimeout)) break;
              }
            }
            const FtpFrame fin{.type = FtpMsg::fin, .conn = c};
            nic_.cpu().compute(sender, cm.unix_tcp_cpu_packet);
            nic_.send(sender, Frame{kNoNode, client, kProtoUnixTcp, codec::encode(fin).take()});
            transfers_.erase(c);
          });
      break;
    }
    case FtpMsg::data: {
      nic_.cpu().compute(self, cost.unix_tcp_cpu_packet);
      auto it = transfers_.find(conn);
      if (it == transfers_.end()) return;
      it->second.data.insert(it->second.data.end(), m.data.begin(), m.data.end());
      nic_.cpu().compute(self, cost.unix_ack_cpu);
      nic_.send(self, reply(FtpMsg::ack));
      break;
    }
    case FtpMsg::ack: {
      nic_.cpu().compute(self, cost.unix_ack_cpu);
      auto it = transfers_.find(conn);
      if (it == transfers_.end()) return;
      it->second.segment_acked = true;
      if (it->second.waiter != nullptr) it->second.waiter->wake();
      break;
    }
    case FtpMsg::fin: {
      nic_.cpu().compute(self, cost.unix_tcp_cpu_packet);
      auto it = transfers_.find(conn);
      if (it == transfers_.end()) return;
      it->second.complete = true;
      it->second.waiter->wake();
      break;
    }
  }
}

}  // namespace clouds::net
