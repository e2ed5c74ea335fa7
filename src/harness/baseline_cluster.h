// BaselineCluster<Protocol> — hosts ABD / chain replication / TOB storage on
// the discrete-event simulator with exactly the topology SimCluster gives the
// core protocol (a sim::SimTransport: server network + client network,
// client machines hosting logical clients), so benchmark comparisons are
// apples-to-apples. The servers and clients are the shared transport hosts
// (harness/transport_hosts.h: PeerHost, ClientHost); what lives here is
// each protocol's adapter — construction, message-family routing, crash
// hooks.
//
// Baseline servers push peer traffic straight onto their NIC (no link-ready
// pacing — that mechanism is specific to the paper's algorithm); the NIC
// model still charges every byte.
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "baselines/abd.h"
#include "baselines/chain.h"
#include "baselines/context.h"
#include "baselines/tob.h"
#include "common/types.h"
#include "harness/sim_cluster.h"  // SimClusterConfig
#include "harness/transport_hosts.h"
#include "harness/workload.h"
#include "sim/network.h"
#include "sim/sim_transport.h"
#include "sim/simulator.h"

namespace hts::harness {

/// Protocol adapters: construction, message-family routing, crash hooks.
struct AbdProtocol {
  using Server = baselines::AbdServer;
  using Client = baselines::AbdClient;
  static constexpr const char* kName = "abd";

  static Server make_server(ProcessId p, std::size_t n) { return Server(p, n); }
  static Client make_client(ClientId id, std::size_t n, ProcessId preferred,
                            double timeout) {
    baselines::AbdClient::Options o;
    o.n_servers = n;
    o.writer_id = static_cast<std::uint32_t>(id);
    o.retry_timeout = timeout;
    (void)preferred;  // ABD clients always talk to every replica
    return Client(id, o);
  }
  static bool is_peer_msg(std::uint16_t) { return false; }
  static void deliver_peer(Server&, net::PayloadPtr, baselines::PeerContext&) {}
  static void deliver_client_msg(Server& s, const net::Payload& m,
                                 baselines::PeerContext& ctx) {
    s.on_client_message(m, ctx);
  }
  static void on_crash(Server&, ProcessId, baselines::PeerContext&) {}
};

struct ChainProtocol {
  using Server = baselines::ChainServer;
  using Client = baselines::ChainClient;
  static constexpr const char* kName = "chain";

  static Server make_server(ProcessId p, std::size_t n) { return Server(p, n); }
  static Client make_client(ClientId id, std::size_t n, ProcessId preferred,
                            double timeout) {
    baselines::ChainClient::Options o;
    o.n_servers = n;
    o.retry_timeout = timeout;
    (void)preferred;  // writes go to the head, reads to the tail
    return Client(id, o);
  }
  static bool is_peer_msg(std::uint16_t kind) {
    return kind == baselines::kChainUpdate || kind == baselines::kChainAckBack;
  }
  static void deliver_peer(Server& s, net::PayloadPtr m,
                           baselines::PeerContext& ctx) {
    s.on_peer_message(*m, ctx);
  }
  static void deliver_client_msg(Server& s, const net::Payload& m,
                                 baselines::PeerContext& ctx) {
    s.on_client_message(m, ctx);
  }
  static void on_crash(Server& s, ProcessId p, baselines::PeerContext& ctx) {
    s.on_peer_crash(p, ctx);
  }
};

struct TobProtocol {
  using Server = baselines::TobServer;
  using Client = baselines::TobClient;
  static constexpr const char* kName = "tob";

  static Server make_server(ProcessId p, std::size_t n) { return Server(p, n); }
  static Client make_client(ClientId id, std::size_t n, ProcessId preferred,
                            double timeout) {
    baselines::TobClient::Options o;
    o.n_servers = n;
    o.preferred_server = preferred;
    o.retry_timeout = timeout;
    return Client(id, o);
  }
  static bool is_peer_msg(std::uint16_t kind) {
    return kind == baselines::kTobOp || kind == baselines::kTobToken ||
           kind == baselines::kTobNudge;
  }
  static void deliver_peer(Server& s, net::PayloadPtr m,
                           baselines::PeerContext& ctx) {
    s.on_peer_message(std::move(m), ctx);
  }
  static void deliver_client_msg(Server& s, const net::Payload& m,
                                 baselines::PeerContext& ctx) {
    s.on_client_message(m, ctx);
  }
  static void on_crash(Server&, ProcessId, baselines::PeerContext&) {
    // Token-recovery is out of scope (DESIGN.md); TOB runs failure-free.
  }
};

template <typename Protocol>
class BaselineCluster {
 public:
  using Server = typename Protocol::Server;
  using Client = typename Protocol::Client;

  BaselineCluster(sim::Simulator& sim, const SimClusterConfig& cfg)
      : n_(cfg.n_servers),
        retry_timeout_(cfg.client_retry_timeout_s),
        net_(sim, sim::SimTransport::Options{cfg.net, cfg.shared_network,
                                             cfg.detection_delay_s}) {
    assert(n_ >= 1);
    for (ProcessId p = 0; p < n_; ++p) {
      servers_.push_back(std::make_unique<PeerHost<Protocol>>(net_, p, n_));
      servers_.back()->register_node();
    }
  }

  std::size_t add_client_machine() { return net_.add_machine(); }

  ClientId add_client(std::size_t machine, ProcessId preferred) {
    const auto id = static_cast<ClientId>(clients_.size());
    net_.place(id, machine);
    clients_.push_back(std::make_unique<ClientHost<Client>>(
        net_, Protocol::make_client(id, n_, preferred, retry_timeout_),
        nullptr));
    clients_.back()->register_node();
    return id;
  }

  ClientPort& port(ClientId id) { return *clients_[id]; }
  Server& server(ProcessId p) { return servers_[p]->server; }
  [[nodiscard]] bool server_up(ProcessId p) const {
    return net_.is_up(net::NodeAddress::server(p));
  }
  sim::Network& server_network() { return net_.server_network(); }

  void crash_server(ProcessId p) { net_.crash(net::NodeAddress::server(p)); }
  void schedule_crash(double at, ProcessId p) {
    net_.simulator().schedule_at(at, [this, p] { crash_server(p); });
  }

 private:
  const std::size_t n_;
  const double retry_timeout_;
  sim::SimTransport net_;
  std::vector<std::unique_ptr<PeerHost<Protocol>>> servers_;
  std::vector<std::unique_ptr<ClientHost<Client>>> clients_;
};

using AbdCluster = BaselineCluster<AbdProtocol>;
using ChainCluster = BaselineCluster<ChainProtocol>;
using TobCluster = BaselineCluster<TobProtocol>;

}  // namespace hts::harness
