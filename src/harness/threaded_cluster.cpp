#include "harness/threaded_cluster.h"

#include <cassert>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/messages.h"
#include "net/inmem_transport.h"
#include "net/tcp_transport.h"
#include "obs/net_stats.h"

namespace hts::harness {

namespace {

/// Builds the configured fabric. The TCP one lists every initial server for
/// the failure-detection mesh; servers spawned later by add_ring are
/// reached lazily by traffic.
std::unique_ptr<net::Transport> make_transport(
    const ThreadedClusterConfig& cfg, const core::Topology& topo) {
  if (cfg.transport == ThreadedClusterConfig::TransportKind::kTcp) {
    return std::make_unique<net::TcpTransport>(tcp_options(
        cfg.detection_delay_s, cfg.tcp_base_port, topo.total_servers()));
  }
  return std::make_unique<net::InMemTransport>(cfg.detection_delay_s);
}

}  // namespace

ThreadedCluster::ThreadedCluster(ThreadedClusterConfig cfg)
    : cfg_(cfg),
      core_(cfg),
      transport_(make_transport(cfg_, core_.topo)),
      epoch_(clk::steady_now()) {
  // One coding knob for the whole deployment: servers inherit it through the
  // options every spawn_server call copies; clients pick it up in add_client.
  cfg_.server_options.value_policy = cfg_.value_policy;
  if (cfg_.recorder != nullptr) {
    // Wall-clock seconds since construction: monotonic across every node
    // thread, comparable with OpResult timestamps (ClientContext::now()).
    cfg_.recorder->set_clock(
        [epoch = epoch_] { return clk::seconds_since(epoch); });
  }
  const core::Topology& topo = core_.topo;
  for (RingId r = 0; r < static_cast<RingId>(topo.n_rings()); ++r) {
    for (ProcessId local = 0; local < topo.ring_size(r); ++local) {
      spawn_server(local, topo.ring_size(r), topo.global_id(r, local),
                   topo.ring_base(r), core::ServerView{0, r, core_.map});
    }
  }
}

ThreadedCluster::~ThreadedCluster() { transport_->stop(); }

void ThreadedCluster::spawn_server(ProcessId local, std::size_t ring_size,
                                   ProcessId global, ProcessId ring_base,
                                   core::ServerView boot,
                                   std::optional<core::ServerView> next) {
  auto host = std::make_unique<TransportServerHost>(
      *transport_, local, ring_size, global, ring_base, cfg_.server_options);
  TransportServerHost* raw = host.get();
  core_.adopt(raw->server, global);
  raw->server.install_view(std::move(boot));
  if (next) raw->server.begin_view_change(std::move(*next));
  servers_.push_back(std::move(host));
  raw->register_node();
}

ThreadedCluster::BlockingClient& ThreadedCluster::add_client(
    ProcessId preferred_server) {
  const auto id = static_cast<ClientId>(clients_.size());
  auto host = std::make_unique<TransportClientHost>(
      *transport_, id, core_.client_options(preferred_server), epoch_,
      cfg_.record_history ? &history_ : nullptr);
  core_.adopt(host->session());
  host->register_node();
  handles_.push_back(
      std::unique_ptr<BlockingClient>(new BlockingClient(host.get())));
  clients_.push_back(std::move(host));
  return *handles_.back();
}

void ThreadedCluster::start() { transport_->start(); }

void ThreadedCluster::crash_server(ProcessId p) {
  transport_->crash(net::NodeAddress::server(p));
}

bool ThreadedCluster::server_up(ProcessId p) const {
  return transport_->is_up(net::NodeAddress::server(p));
}

// ----------------------------------------------------- reconfiguration

namespace {

/// Executes one coordinator command on `host`'s own thread (the caller
/// runs it through Transport::execute), keeping the state machine
/// single-threaded. Migration egress is counted into `migrate_bytes` /
/// `dedup_bytes`.
std::optional<core::MigrationProbe> run_command(
    TransportServerHost& host, const core::MigrationCommand& cmd,
    std::atomic<std::uint64_t>& migrate_bytes,
    std::atomic<std::uint64_t>& dedup_bytes) {
  net::Transport& transport = host.transport;
  auto probe = core::execute_migration_command(
      cmd, host.server, host,
      [&](ProcessId to, const net::PayloadPtr& msg) {
        if (!transport.is_up(net::NodeAddress::server(to))) return;
        (msg->kind() == core::kMigrateState ? migrate_bytes : dedup_bytes)
            .fetch_add(msg->wire_size(), std::memory_order_relaxed);
        transport.send(net::NodeAddress::server(host.global),
                       net::NodeAddress::server(to), msg);
      });
  host.drain();
  return probe;
}

/// Runs one command on server `global` and waits for its result. Returns
/// nullopt if the server died (its queue was discarded — no reply will
/// come). Holds no lock while it waits or while `command` may run inline.
std::optional<core::MigrationProbe> await_control(
    net::Transport& transport, ProcessId global,
    std::function<std::optional<core::MigrationProbe>()> command) {
  auto reply = std::make_shared<std::promise<core::MigrationProbe>>();
  auto fut = reply->get_future();
  transport.execute(net::NodeAddress::server(global),
                    [reply, command = std::move(command)] {
                      reply->set_value(
                          command().value_or(core::MigrationProbe{}));
                    });
  for (;;) {
    if (fut.wait_for(std::chrono::milliseconds(2)) ==
        std::future_status::ready) {
      return fut.get();
    }
    if (!transport.is_up(net::NodeAddress::server(global))) {
      // One last chance: the reply may have been set just before the crash.
      if (fut.wait_for(std::chrono::milliseconds(0)) ==
          std::future_status::ready) {
        return fut.get();
      }
      return std::nullopt;
    }
  }
}

}  // namespace

Epoch ThreadedCluster::add_ring(std::size_t n_servers) {
  // Runtime validation, not asserts: malformed calls must fail loudly in
  // Release builds too, before anything is spawned.
  if (core_.topo.total_servers() != servers_.size()) {
    // A grow after a shrink would reuse the retired ring's global ids,
    // whose hosts still own those transport nodes.
    throw std::logic_error(
        "add_ring: the threaded fabric does not reuse retired global ids");
  }
  const core::ClusterView current = view();
  core::MigrationCoordinator coord(core::MigrationPlan::grow(
      current, core_.map, n_servers, cfg_.value_policy.active()));
  const core::MigrationPlan& plan = coord.plan();

  // Spawn the new ring: views installed before the node registers, so its
  // thread never sees a serving window. Under the current view the new
  // servers own nothing — every client op parks until the flip.
  const auto new_ring = static_cast<RingId>(core_.topo.n_rings());
  const auto base = static_cast<ProcessId>(core_.topo.total_servers());
  for (ProcessId local = 0; local < n_servers; ++local) {
    spawn_server(local, n_servers, static_cast<ProcessId>(base + local), base,
                 core::ServerView{current.epoch, new_ring, core_.map},
                 core::ServerView{plan.next.epoch, new_ring, plan.new_map});
  }
  return run_coordinator(coord);
}

Epoch ThreadedCluster::remove_last_ring() {
  core::MigrationCoordinator coord(core::MigrationPlan::shrink(
      view(), core_.map, cfg_.value_policy.active()));
  return run_coordinator(coord);
}

Epoch ThreadedCluster::run_coordinator(core::MigrationCoordinator& coord) {
  if (migrating_.exchange(true)) {
    throw std::logic_error("reconfiguration already in progress");
  }
  using Kind = core::MigrationCommand::Kind;
  for (;;) {
    core::MigrationCommand cmd = coord.next();
    if (cmd.kind == Kind::kDone) break;
    switch (cmd.kind) {
      case Kind::kPublish:
        core_.registry->publish(coord.plan().next);
        break;
      case Kind::kWait:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cmd.delay_s));
        break;
      case Kind::kRetire:
        if (server_up(cmd.server)) crash_server(cmd.server);
        break;
      default: {
        const bool is_probe = cmd.kind == Kind::kProbe;
        const ProcessId target = cmd.server;
        TransportServerHost* host = servers_[target].get();
        auto reply = await_control(
            *transport_, target, [this, host, cmd = std::move(cmd)] {
              return run_command(*host, cmd, migrate_bytes_, dedup_bytes_);
            });
        if (!reply) {
          coord.on_down();
        } else if (is_probe) {
          coord.on_probe(std::move(*reply));
        }
        break;
      }
    }
  }
  core_.migration_stats.bytes_moved +=
      migrate_bytes_.exchange(0, std::memory_order_relaxed);
  core_.migration_stats.dedup_bytes +=
      dedup_bytes_.exchange(0, std::memory_order_relaxed);
  core_.finish(coord);
  migrating_.store(false);
  return coord.plan().next.epoch;
}

// ------------------------------------------------------------- accessors

bool ThreadedCluster::wait_quiescent(double timeout_s) {
  return transport_->wait_quiescent(timeout_s);
}

core::RingServer& ThreadedCluster::server(ProcessId p) {
  return servers_[p]->server;
}

RingTraffic ThreadedCluster::ring_traffic(RingId r) const {
  const core::Topology& topo = core_.topo;
  assert(r < topo.n_rings());
  RingTraffic t;
  for (ProcessId local = 0; local < topo.ring_size(r); ++local) {
    const TransportServerHost& host = *servers_[topo.global_id(r, local)];
    t.transmissions +=
        host.ring_transmissions.load(std::memory_order_relaxed);
    t.bytes += host.ring_bytes.load(std::memory_order_relaxed);
    t.ring_messages += host.server.stats().ring_messages_out;
    t.batches += host.server.stats().batches_out;
  }
  return t;
}

std::vector<RingTraffic> ThreadedCluster::traffic_per_ring() const {
  return core_.traffic_per_ring([this](RingId r) { return ring_traffic(r); });
}

void ThreadedCluster::export_metrics() {
  if (cfg_.recorder == nullptr) return;
  std::vector<std::pair<ProcessId, const core::RingServer*>> servers;
  for (const auto& host : servers_) {
    servers.emplace_back(host->global, &host->server);
  }
  std::vector<const core::ClientSession*> sessions;
  for (const auto& host : clients_) sessions.push_back(&host->session());
  core_.export_metrics(servers, sessions, traffic_per_ring());
  // One transport carries everything here; per-node tx counters go under a
  // single "net.host" prefix (labels "s<id>" / "c<id>").
  obs::export_links(cfg_.recorder->registry(), "net.host", *transport_);
}

// ---------------------------------------------------------------- client

void ThreadedCluster::BlockingClient::write(ObjectId object, Value v) {
  (void)host_->run(false, object, std::move(v));
}

Value ThreadedCluster::BlockingClient::read(ObjectId object) {
  return host_->run(true, object, {}).value;
}

core::OpResult ThreadedCluster::BlockingClient::read_result(ObjectId object) {
  return host_->run(true, object, {});
}

std::future<core::OpResult> ThreadedCluster::BlockingClient::async_write(
    ObjectId object, Value v) {
  return host_->launch(false, object, std::move(v));
}

std::future<core::OpResult> ThreadedCluster::BlockingClient::async_read(
    ObjectId object) {
  return host_->launch(true, object, {});
}

ClientId ThreadedCluster::BlockingClient::id() const {
  return host_->session().id();
}

}  // namespace hts::harness
