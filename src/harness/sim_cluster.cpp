#include "harness/sim_cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/messages.h"
#include "obs/net_stats.h"

namespace hts::harness {

// ---------------------------------------------------------------- nodes

struct SimCluster::ServerNode final : core::ServerContext {
  SimCluster* cluster = nullptr;
  sim::Simulator* sim = nullptr;
  core::RingServer server;           // runs on local (in-ring) ids
  RingId ring = kDefaultRing;        // which shard this server belongs to
  ProcessId global = 0;              // ring-major global id
  ProcessId ring_base = 0;           // global id of the ring's server 0
  std::size_t ring_size = 1;         // servers in this ring
  sim::NicId ring_nic = sim::kNoNic;
  sim::NicId client_nic = sim::kNoNic;
  bool up = true;
  bool pump_scheduled = false;

  ServerNode(SimCluster* cl, RingId r, ProcessId local, std::size_t n_per_ring,
             ProcessId global_id, ProcessId base, core::ServerOptions opts)
      : cluster(cl),
        sim(&cl->sim_),
        server(local, n_per_ring, opts),
        ring(r),
        global(global_id),
        ring_base(base),
        ring_size(n_per_ring) {}

  /// Single entry point for both NICs: routes by message family so the
  /// shared-network topology (one NIC for everything) works unchanged.
  void deliver_any(net::PayloadPtr msg) {
    if (!up) return;
    server.on_message(std::move(msg), *this);
    pump();
  }

  void peer_crashed(ProcessId p) {
    if (!up) return;
    server.on_peer_crash(p, *this);
    pump();
  }

  /// Feeds the NIC one message per free transmit slot, letting the fairness
  /// scheduler pick each ring message at the moment the link frees — the
  /// paper's "one ring message per round" pacing. On a shared network the
  /// same slot pacing interleaves client replies with ring traffic
  /// round-robin, the way per-connection TCP fairness shares a real NIC;
  /// without it, a saturating read load would starve the ring entirely.
  void pump() {
    if (!up || pump_scheduled) return;
    sim::Network& net = cluster->server_network();
    const double free_at = net.tx_free_at(ring_nic);
    if (free_at > sim->now()) {
      schedule_pump(free_at);
      return;
    }
    const bool sent = prefer_reply ? (send_one_reply() || send_one_ring())
                                   : (send_one_ring() || send_one_reply());
    prefer_reply = !prefer_reply;
    if (sent) {
      schedule_pump(net.tx_free_at(ring_nic));
    }
  }

  bool send_one_ring() {
    // The fairness scheduler fills the batch (up to max_batch) at the moment
    // the link frees — the §4.2 TCP-stream piggybacking, now owned by the
    // protocol core. A single-message batch goes on the wire unwrapped, so
    // max_batch = 1 reproduces the unbatched protocol bit-for-bit.
    auto batch = server.next_ring_batch();
    if (!batch) return false;
    assert(batch->to != server.id());
    sim::Network& net = cluster->server_network();
    // The protocol addresses its successor by local id; the fabric maps it
    // into the ring's global id block. Ring traffic never crosses rings.
    const ProcessId to_global =
        static_cast<ProcessId>(ring_base + batch->to);
    net.send(ring_nic, cluster->servers_[to_global]->ring_nic,
             std::move(*batch).into_wire());
    return true;
  }

  bool send_one_reply() {
    if (reply_queue.empty()) return false;
    auto [client, msg] = std::move(reply_queue.front());
    reply_queue.pop_front();
    transmit_reply(client, std::move(msg));
    return true;
  }

  void schedule_pump(double at) {
    pump_scheduled = true;
    sim->schedule_at(at, [this] {
      pump_scheduled = false;
      pump();
    });
  }

  void transmit_reply(ClientId client, net::PayloadPtr msg);

  std::deque<std::pair<ClientId, net::PayloadPtr>> reply_queue;
  bool prefer_reply = false;

  // core::ServerContext
  void send_client(ClientId client, net::PayloadPtr msg) override;
};

struct SimCluster::ClientMachine {
  SimCluster* cluster = nullptr;
  sim::NicId nic = sim::kNoNic;

  void deliver(net::PayloadPtr msg);  // defined after LogicalClient
};

struct SimCluster::LogicalClient final : core::ClientContext, ClientPort {
  SimCluster* cluster = nullptr;
  std::size_t machine = 0;
  core::ClientSession client;

  LogicalClient(SimCluster* cl, std::size_t m, ClientId id,
                core::ClientOptions opts)
      : cluster(cl), machine(m), client(id, opts) {}

  void deliver(const net::Payload& msg, ProcessId from) {
    client.on_reply(msg, from, *this);
  }

  // harness::ClientPort
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
    SimCluster& cl = *cluster;
    cl.client_net_->send(cl.machines_[machine]->nic,
                         cl.servers_[server]->client_nic, std::move(msg));
  }

  void arm_timer(double delay_seconds, std::uint64_t token) override {
    cluster->sim_.schedule(delay_seconds, [this, token] {
      client.on_timer(token, *this);
    });
  }

  [[nodiscard]] double now() const override { return cluster->sim_.now(); }
};

void SimCluster::ClientMachine::deliver(net::PayloadPtr msg) {
  if (msg->kind() != ClientEnvelope::kKind) return;
  const auto& env = static_cast<const ClientEnvelope&>(*msg);
  cluster->clients_[env.to]->deliver(*env.inner, env.from);
}

void SimCluster::ServerNode::transmit_reply(ClientId client,
                                            net::PayloadPtr msg) {
  SimCluster& cl = *cluster;
  auto& lc = *cl.clients_[client];
  // The envelope names the *global* server id: that is what sessions report
  // as served_by and what identifies the serving ring to the checkers.
  cl.client_net_->send(client_nic, cl.machines_[lc.machine]->nic,
                       net::make_payload<ClientEnvelope>(client, global,
                                                         std::move(msg)));
}

void SimCluster::ServerNode::send_client(ClientId client,
                                         net::PayloadPtr msg) {
  if (cluster->cfg_.shared_network) {
    // One NIC for everything: replies share the paced transmit slots with
    // ring traffic (see pump()).
    reply_queue.emplace_back(client, std::move(msg));
    pump();
    return;
  }
  transmit_reply(client, std::move(msg));
}

// ---------------------------------------------------------------- cluster

SimCluster::SimCluster(sim::Simulator& sim, SimClusterConfig cfg)
    : sim_(sim), cfg_(cfg), core_(cfg) {
  // One coding knob for the whole deployment: servers inherit it through the
  // options every spawn_server call copies; clients pick it up in add_client.
  cfg_.server_options.value_policy = cfg_.value_policy;
  if (cfg_.recorder != nullptr) {
    // Trace/metric timestamps are simulated seconds: a sim run's entire
    // export is a pure function of the seed.
    cfg_.recorder->set_clock([sim = &sim_] { return sim->now(); });
  }
  server_net_ = std::make_unique<sim::Network>(sim_, cfg_.net);
  if (cfg_.shared_network) {
    client_net_ = server_net_.get();
  } else {
    client_net_owned_ = std::make_unique<sim::Network>(sim_, cfg_.net);
    client_net_ = client_net_owned_.get();
  }

  // One ring at a time, ring-major: servers_[global] is server `local` of
  // its ring. Each ring is an independent instance of the protocol; only
  // client traffic (and reconfiguration copies) ever spans rings.
  const core::Topology& topo = core_.topo;
  for (RingId r = 0; r < static_cast<RingId>(topo.n_rings()); ++r) {
    for (ProcessId local = 0; local < topo.ring_size(r); ++local) {
      ServerNode& node =
          spawn_server(r, local, topo.ring_size(r), topo.global_id(r, local),
                       topo.ring_base(r));
      node.server.install_view(core::ServerView{0, r, core_.map});
    }
  }
}

SimCluster::~SimCluster() = default;

SimCluster::ServerNode& SimCluster::spawn_server(RingId ring, ProcessId local,
                                                 std::size_t ring_size,
                                                 ProcessId global,
                                                 ProcessId ring_base) {
  auto node = std::make_unique<ServerNode>(this, ring, local, ring_size,
                                           global, ring_base,
                                           cfg_.server_options);
  ServerNode* raw = node.get();
  core_.adopt(node->server, global);
  std::string label = "s";
  label += std::to_string(global);
  node->ring_nic = server_net_->add_nic(
      label + ".ring",
      [raw](net::PayloadPtr m) { raw->deliver_any(std::move(m)); });
  if (cfg_.shared_network) {
    // One physical NIC: ring and client traffic share the serializers.
    node->client_nic = node->ring_nic;
  } else {
    node->client_nic = client_net_->add_nic(
        label + ".client",
        [raw](net::PayloadPtr m) { raw->deliver_any(std::move(m)); });
  }
  if (global < servers_.size()) {
    // A ring grown after a shrink reuses the retired ring's global-id block
    // (the topology's ring-major arithmetic demands it). The retired node
    // moves to the graveyard — pending sim events may still hold a pointer
    // to it, and its NICs stay disabled so nothing can reach it.
    assert(!servers_[global]->up);
    graveyard_.push_back(std::move(servers_[global]));
    servers_[global] = std::move(node);
  } else {
    assert(servers_.size() == global);
    servers_.push_back(std::move(node));
  }
  return *raw;
}

std::size_t SimCluster::add_client_machine() {
  auto m = std::make_unique<ClientMachine>();
  m->cluster = this;
  ClientMachine* raw = m.get();
  m->nic = client_net_->add_nic(
      "cm" + std::to_string(machines_.size()),
      [raw](net::PayloadPtr msg) { raw->deliver(std::move(msg)); });
  machines_.push_back(std::move(m));
  return machines_.size() - 1;
}

core::ClientSession& SimCluster::add_client(std::size_t machine,
                                            ProcessId server) {
  assert(machine < machines_.size());
  assert(server < servers_.size());
  const ClientId id = static_cast<ClientId>(clients_.size());
  clients_.push_back(std::make_unique<LogicalClient>(
      this, machine, id, core_.client_options(server)));
  core_.adopt(clients_.back()->client);
  return clients_.back()->client;
}

void SimCluster::crash_server(ProcessId p) {
  assert(p < servers_.size());
  ServerNode& node = *servers_[p];
  if (!node.up) return;
  node.up = false;
  server_net_->disable(node.ring_nic);
  if (!cfg_.shared_network) client_net_->disable(node.client_nic);
  // Failure detection is a ring-local concern: only the crashed server's
  // ring peers learn of it (and they are notified of its local id — the id
  // their protocol instance knows it by). Other shards never notice.
  const RingId ring = node.ring;
  const ProcessId local = static_cast<ProcessId>(p - node.ring_base);
  sim_.schedule(cfg_.detection_delay_s, [this, ring, local] {
    for (auto& s : servers_) {
      if (s->up && s->ring == ring) s->peer_crashed(local);
    }
  });
}

void SimCluster::schedule_crash(double at, ProcessId p) {
  sim_.schedule_at(at, [this, p] { crash_server(p); });
}

// ----------------------------------------------------- reconfiguration

Epoch SimCluster::add_ring(std::size_t n_servers) {
  // Runtime validation, not asserts: a malformed or overlapping schedule
  // must fail loudly in Release too — overwriting an in-flight
  // reconfiguration would hand servers inconsistent views.
  if (rc_) throw std::logic_error("add_ring: reconfiguration in progress");
  const core::ClusterView current = core_.view();
  rc_ = std::make_unique<core::MigrationCoordinator>(core::MigrationPlan::grow(
      current, core_.map, n_servers, cfg_.value_policy.active()));
  const core::MigrationPlan& plan = rc_->plan();

  // Spawn the new ring. Its servers come up mid-transition: under the
  // *current* view they own nothing (the current map never routes to their
  // ring id), so every client op they receive before the flip parks — no
  // register is served from pre-migration (initial) state.
  const RingId new_ring = static_cast<RingId>(core_.topo.n_rings());
  const ProcessId base = static_cast<ProcessId>(core_.topo.total_servers());
  for (ProcessId local = 0; local < n_servers; ++local) {
    ServerNode& node =
        spawn_server(new_ring, local, n_servers,
                     static_cast<ProcessId>(base + local), base);
    node.server.install_view(
        core::ServerView{current.epoch, new_ring, core_.map});
    node.server.begin_view_change(
        core::ServerView{plan.next.epoch, new_ring, plan.new_map});
  }
  run_coordinator();
  return plan.next.epoch;
}

Epoch SimCluster::remove_last_ring() {
  if (rc_) {
    throw std::logic_error("remove_last_ring: reconfiguration in progress");
  }
  rc_ = std::make_unique<core::MigrationCoordinator>(
      core::MigrationPlan::shrink(core_.view(), core_.map,
                                  cfg_.value_policy.active()));
  const Epoch next = rc_->plan().next.epoch;
  run_coordinator();
  return next;
}

void SimCluster::schedule_add_ring(double at, std::size_t n_servers) {
  sim_.schedule_at(at, [this, n_servers] { add_ring(n_servers); });
}

void SimCluster::schedule_remove_last_ring(double at) {
  sim_.schedule_at(at, [this] { remove_last_ring(); });
}

void SimCluster::run_coordinator() {
  using Kind = core::MigrationCommand::Kind;
  for (;;) {
    const core::MigrationCommand cmd = rc_->next();
    switch (cmd.kind) {
      case Kind::kPublish:
        core_.registry->publish(rc_->plan().next);
        break;
      case Kind::kWait:
        sim_.schedule(cmd.delay_s, [this] { run_coordinator(); });
        return;
      case Kind::kRetire: {
        // Clean retirement, not a crash: the ring is empty of state by now
        // and its peers retire with it, so no failure detection fires.
        ServerNode& node = *servers_[cmd.server];
        node.up = false;
        server_net_->disable(node.ring_nic);
        if (!cfg_.shared_network) client_net_->disable(node.client_nic);
        break;
      }
      case Kind::kDone:
        core_.finish(*rc_);
        rc_.reset();
        return;
      default: {
        ServerNode& node = *servers_[cmd.server];
        if (!node.up) {
          rc_->on_down();
          break;
        }
        // Copies travel the server network, charged like all ring traffic
        // and counted as migration cost.
        auto probe = core::execute_migration_command(
            cmd, node.server, node,
            [this, &node](ProcessId to, const net::PayloadPtr& msg) {
              ServerNode& dst = *servers_[to];
              if (!dst.up) return;
              (msg->kind() == core::kMigrateState
                   ? core_.migration_stats.bytes_moved
                   : core_.migration_stats.dedup_bytes) += msg->wire_size();
              server_net_->send(node.ring_nic, dst.ring_nic, msg);
            });
        if (probe) rc_->on_probe(std::move(*probe));
        if (cmd.kind == Kind::kCommit) node.pump();
        break;
      }
    }
  }
}

// ------------------------------------------------------------- accessors

bool SimCluster::server_up(ProcessId p) const { return servers_[p]->up; }

core::RingServer& SimCluster::server(ProcessId p) {
  return servers_[p]->server;
}

core::ClientSession& SimCluster::client(ClientId id) {
  return clients_[id]->client;
}

ClientPort& SimCluster::port(ClientId id) { return *clients_[id]; }

std::size_t SimCluster::client_count() const { return clients_.size(); }

RingTraffic SimCluster::ring_traffic(RingId r) const {
  const core::Topology& topo = core_.topo;
  assert(r < topo.n_rings());
  RingTraffic t;
  for (ProcessId local = 0; local < topo.ring_size(r); ++local) {
    const ServerNode& node = *servers_[topo.global_id(r, local)];
    t.transmissions += server_net_->nic_messages_sent(node.ring_nic);
    t.bytes += server_net_->nic_bytes_sent(node.ring_nic);
    t.ring_messages += node.server.stats().ring_messages_out;
    t.batches += node.server.stats().batches_out;
  }
  return t;
}

std::vector<RingTraffic> SimCluster::traffic_per_ring() const {
  return core_.traffic_per_ring([this](RingId r) { return ring_traffic(r); });
}

void SimCluster::export_metrics() {
  if (cfg_.recorder == nullptr) return;
  std::vector<std::pair<ProcessId, const core::RingServer*>> servers;
  for (const auto& node : servers_) {
    servers.emplace_back(node->global, &node->server);
  }
  std::vector<const core::ClientSession*> sessions;
  for (const auto& lc : clients_) sessions.push_back(&lc->client);
  core_.export_metrics(servers, sessions, traffic_per_ring());

  obs::MetricsRegistry& reg = cfg_.recorder->registry();
  obs::export_links(reg, "net.server", *server_net_);
  if (!cfg_.shared_network) {
    obs::export_links(reg, "net.client", *client_net_);
  }
}

}  // namespace hts::harness
