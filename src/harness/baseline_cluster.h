// BaselineCluster<Protocol> — hosts ABD / chain replication / TOB storage on
// the discrete-event simulator with exactly the topology SimCluster gives the
// core protocol (server network + client network, client machines hosting
// logical clients), so benchmark comparisons are apples-to-apples.
//
// Baseline servers push peer traffic directly into their NIC (no fairness
// pull loop — that mechanism is specific to the paper's algorithm); the NIC
// model still charges every byte.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "baselines/abd.h"
#include "baselines/chain.h"
#include "baselines/context.h"
#include "baselines/tob.h"
#include "common/types.h"
#include "harness/sim_cluster.h"  // ClientEnvelope, SimClusterConfig
#include "harness/workload.h"
#include "sim/network.h"
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

  BaselineCluster(sim::Simulator& sim, SimClusterConfig cfg)
      : sim_(sim), cfg_(cfg) {
    assert(cfg_.n_servers >= 1);
    server_net_ = std::make_unique<sim::Network>(sim_, cfg_.net);
    if (cfg_.shared_network) {
      client_net_ = server_net_.get();
    } else {
      client_net_owned_ = std::make_unique<sim::Network>(sim_, cfg_.net);
      client_net_ = client_net_owned_.get();
    }
    for (ProcessId p = 0; p < cfg_.n_servers; ++p) {
      auto node = std::make_unique<ServerNode>(this, p, cfg_.n_servers);
      ServerNode* raw = node.get();
      node->peer_nic = server_net_->add_nic(
          std::string(Protocol::kName) + std::to_string(p) + ".peer",
          [raw](net::PayloadPtr m) { raw->deliver(std::move(m)); });
      node->client_nic =
          cfg_.shared_network
              ? node->peer_nic
              : client_net_->add_nic(
                    std::string(Protocol::kName) + std::to_string(p) +
                        ".client",
                    [raw](net::PayloadPtr m) { raw->deliver(std::move(m)); });
      servers_.push_back(std::move(node));
    }
  }

  std::size_t add_client_machine() {
    auto m = std::make_unique<ClientMachine>();
    m->cluster = this;
    ClientMachine* raw = m.get();
    m->nic = client_net_->add_nic(
        "cm" + std::to_string(machines_.size()),
        [raw](net::PayloadPtr msg) { raw->deliver(std::move(msg)); });
    machines_.push_back(std::move(m));
    return machines_.size() - 1;
  }

  ClientId add_client(std::size_t machine, ProcessId preferred) {
    assert(machine < machines_.size());
    const ClientId id = static_cast<ClientId>(clients_.size());
    clients_.push_back(std::make_unique<LogicalClient>(
        this, machine,
        Protocol::make_client(id, cfg_.n_servers, preferred,
                              cfg_.client_retry_timeout_s)));
    return id;
  }

  ClientPort& port(ClientId id) { return *clients_[id]; }
  Server& server(ProcessId p) { return servers_[p]->server; }
  [[nodiscard]] bool server_up(ProcessId p) const { return servers_[p]->up; }
  sim::Network& server_network() { return *server_net_; }

  void crash_server(ProcessId p) {
    ServerNode& node = *servers_[p];
    if (!node.up) return;
    node.up = false;
    server_net_->disable(node.peer_nic);
    if (!cfg_.shared_network) client_net_->disable(node.client_nic);
    sim_.schedule(cfg_.detection_delay_s, [this, p] {
      for (auto& s : servers_) {
        if (s->up) Protocol::on_crash(s->server, p, *s);
      }
    });
  }

  void schedule_crash(double at, ProcessId p) {
    sim_.schedule_at(at, [this, p] { crash_server(p); });
  }

 private:
  struct ServerNode final : baselines::PeerContext {
    BaselineCluster* cluster;
    Server server;
    sim::NicId peer_nic = sim::kNoNic;
    sim::NicId client_nic = sim::kNoNic;
    bool up = true;

    ServerNode(BaselineCluster* cl, ProcessId p, std::size_t n)
        : cluster(cl), server(Protocol::make_server(p, n)) {}

    void deliver(net::PayloadPtr msg) {
      if (!up) return;
      if (Protocol::is_peer_msg(msg->kind())) {
        Protocol::deliver_peer(server, std::move(msg), *this);
      } else {
        Protocol::deliver_client_msg(server, *msg, *this);
      }
    }

    void send_peer(ProcessId to, net::PayloadPtr msg) override {
      cluster->server_net_->send(peer_nic, cluster->servers_[to]->peer_nic,
                                 std::move(msg));
    }
    void send_client(ClientId client, net::PayloadPtr msg) override {
      auto& lc = *cluster->clients_[client];
      cluster->client_net_->send(
          client_nic, cluster->machines_[lc.machine]->nic,
          net::make_payload<ClientEnvelope>(client, server.id(),
                                            std::move(msg)));
    }
  };

  struct ClientMachine {
    BaselineCluster* cluster;
    sim::NicId nic = sim::kNoNic;
    void deliver(net::PayloadPtr msg) {
      if (msg->kind() != ClientEnvelope::kKind) return;
      const auto& env = static_cast<const ClientEnvelope&>(*msg);
      cluster->clients_[env.to]->deliver(*env.inner);
    }
  };

  struct LogicalClient final : core::ClientContext, ClientPort {
    BaselineCluster* cluster;
    std::size_t machine;
    Client client;

    LogicalClient(BaselineCluster* cl, std::size_t m, Client c)
        : cluster(cl), machine(m), client(std::move(c)) {}

    void deliver(const net::Payload& msg) { client.on_reply(msg, *this); }

    // ClientPort: every baseline serves the keyed namespace and routes the
    // object straight through.
    RequestId begin_write(ObjectId object, Value v) override {
      return client.begin_write(object, std::move(v), *this);
    }
    RequestId begin_read(ObjectId object) override {
      return client.begin_read(object, *this);
    }
    void set_on_complete(
        std::function<void(const core::OpResult&)> cb) override {
      client.on_complete = std::move(cb);
    }

    // core::ClientContext
    void send_server(ProcessId server, net::PayloadPtr msg) override {
      cluster->client_net_->send(cluster->machines_[machine]->nic,
                                 cluster->servers_[server]->client_nic,
                                 std::move(msg));
    }
    void arm_timer(double delay_seconds, std::uint64_t token) override {
      cluster->sim_.schedule(delay_seconds,
                             [this, token] { client.on_timer(token, *this); });
    }
    [[nodiscard]] double now() const override { return cluster->sim_.now(); }
  };

  sim::Simulator& sim_;
  SimClusterConfig cfg_;
  std::unique_ptr<sim::Network> server_net_;
  std::unique_ptr<sim::Network> client_net_owned_;
  sim::Network* client_net_ = nullptr;
  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::vector<std::unique_ptr<ClientMachine>> machines_;
  std::vector<std::unique_ptr<LogicalClient>> clients_;
};

using AbdCluster = BaselineCluster<AbdProtocol>;
using ChainCluster = BaselineCluster<ChainProtocol>;
using TobCluster = BaselineCluster<TobProtocol>;

}  // namespace hts::harness
