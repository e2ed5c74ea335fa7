#include "harness/threaded_cluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/messages.h"
#include "harness/obs_report.h"
#include "net/inmem_transport.h"
#include "net/tcp_transport.h"
#include "obs/net_stats.h"

namespace hts::harness {

namespace {

// Same histogram shapes as SimCluster, so both fabrics' exports validate
// against one schema.
const std::vector<double> kBatchFillBounds = {1, 2, 4, 8, 16, 32, 64, 128};
const std::vector<double> kBackoffBounds = {0.001, 0.01, 0.1, 0.25,
                                            0.5,   1,    2,   4,   8};

constexpr double kOpTimeoutSeconds = 30.0;

}  // namespace

// ----------------------------------------------------------------- hosts

struct ThreadedCluster::ServerHost final : core::ServerContext {
  ThreadedCluster* cluster = nullptr;
  core::RingServer server;           // runs on local (in-ring) ids
  RingId ring = kDefaultRing;
  ProcessId global = 0;              // ring-major global id
  ProcessId ring_base = 0;
  std::size_t ring_size = 1;
  // Ring egress accounting (written on this host's loop thread, read by
  // the harness after quiescence — atomics keep the access well-defined).
  std::atomic<std::uint64_t> ring_transmissions{0};
  std::atomic<std::uint64_t> ring_bytes{0};
  // Migration egress, counted on this host's thread, read after the flip.
  std::atomic<std::uint64_t> migrate_bytes{0};
  std::atomic<std::uint64_t> dedup_bytes{0};

  ServerHost(ThreadedCluster* cl, RingId r, ProcessId local,
             std::size_t n_per_ring, ProcessId global_id, ProcessId base,
             core::ServerOptions opts)
      : cluster(cl),
        server(local, n_per_ring, opts),
        ring(r),
        global(global_id),
        ring_base(base),
        ring_size(n_per_ring) {}

  void on_message(net::NodeAddress from, net::PayloadPtr msg) {
    (void)from;
    server.on_message(std::move(msg), *this);
    drain();
  }

  /// Executes one coordinator command serialized with this server's
  /// handlers (Transport::execute), keeping the state machine
  /// single-threaded.
  std::optional<core::MigrationProbe> run_command(
      const core::MigrationCommand& cmd) {
    auto probe = core::execute_migration_command(
        cmd, server, *this,
        [this](ProcessId to, const net::PayloadPtr& msg) {
          if (!cluster->transport_->is_up(net::NodeAddress::server(to))) {
            return;
          }
          (msg->kind() == core::kMigrateState ? migrate_bytes : dedup_bytes)
              .fetch_add(msg->wire_size(), std::memory_order_relaxed);
          cluster->transport_->send(net::NodeAddress::server(global),
                                   net::NodeAddress::server(to), msg);
        });
    drain();
    return probe;
  }

  void on_crash(ProcessId p) {
    // The transport broadcasts crashes by global id; failure detection is a
    // ring-local concern, so other shards' notifications are dropped here
    // and a ring peer is handed the local id its protocol instance knows.
    // Host-local ring bounds: the cluster topology may be mid-change.
    if (p == global || p < ring_base || p >= ring_base + ring_size) return;
    server.on_peer_crash(static_cast<ProcessId>(p - ring_base), *this);
    drain();
  }

  /// Without NIC pacing the fairness scheduler still orders the backlog;
  /// we simply flush it after every event. Each flush step moves one batch
  /// (up to max_batch messages) as a single FIFO transmission, so the
  /// threaded fabric pays — and its transport charges — per-batch costs
  /// exactly like the simulator.
  void drain() {
    while (auto batch = server.next_ring_batch()) {
      const ProcessId to_global =
          static_cast<ProcessId>(ring_base + batch->to);
      auto wire = std::move(*batch).into_wire();
      ring_transmissions.fetch_add(1, std::memory_order_relaxed);
      ring_bytes.fetch_add(wire->wire_size(), std::memory_order_relaxed);
      cluster->transport_->send(net::NodeAddress::server(global),
                               net::NodeAddress::server(to_global),
                               std::move(wire));
    }
  }

  void send_client(ClientId client, net::PayloadPtr msg) override {
    cluster->transport_->send(net::NodeAddress::server(global),
                             net::NodeAddress::client(client), std::move(msg));
  }
};

struct ThreadedCluster::ClientHost final : core::ClientContext {
  ThreadedCluster* cluster = nullptr;
  core::ClientSession client;

  /// Caller-side state per in-flight request. Touched only serialized with
  /// the client's handlers (submit closures and completions).
  struct PendingOp {
    std::shared_ptr<std::promise<core::OpResult>> promise;
    std::uint64_t value_seed = 0;
  };
  std::map<RequestId, PendingOp> pending;

  ClientHost(ThreadedCluster* cl, ClientId id, core::ClientOptions opts)
      : cluster(cl), client(id, opts) {
    client.on_complete = [this](const core::OpResult& r) { finish(r); };
    client.set_view_provider([reg = cluster->registry_] { return reg->get(); });
  }

  /// Starts one operation; runs through Transport::execute.
  void submit(bool is_read, ObjectId object, Value v,
              std::shared_ptr<std::promise<core::OpResult>> promise) {
    const std::uint64_t seed = v.synthetic_seed();
    const RequestId req =
        is_read ? client.begin_read(object, *this)
                : client.begin_write(object, std::move(v), *this);
    pending.emplace(req, PendingOp{std::move(promise), seed});
  }

  void on_message(net::NodeAddress from, net::PayloadPtr msg) {
    const ProcessId sender =
        from.kind == net::NodeAddress::Kind::kServer
            ? static_cast<ProcessId>(from.id)
            : kNoProcess;
    client.on_reply(*msg, sender, *this);
  }

  void on_timer(std::uint64_t token) { client.on_timer(token, *this); }

  void finish(const core::OpResult& r) {
    auto it = pending.find(r.req);
    if (cluster->cfg_.record_history) {
      // OpResult::ring already names the ring of the server that replied
      // (the session derives it from served_by); the epoch rides on the
      // reply frame.
      const RingId ring = r.ring;
      const sync::MutexLock lock(cluster->history_mu_);
      if (r.is_read) {
        const std::uint64_t seen = r.value.empty()
                                       ? lincheck::kInitialValueId
                                       : r.value.synthetic_seed();
        cluster->history_.record_read(client.id(), seen, r.invoked_at,
                                      r.completed_at, r.tag, r.object, ring,
                                      r.epoch, r.req);
      } else {
        const std::uint64_t seed =
            it != pending.end() ? it->second.value_seed : 0;
        cluster->history_.record_write(client.id(), seed, r.invoked_at,
                                       r.completed_at, r.object, ring,
                                       r.epoch, r.req);
      }
    }
    if (it != pending.end()) {
      it->second.promise->set_value(r);
      pending.erase(it);
    }
  }

  // core::ClientContext
  void send_server(ProcessId server, net::PayloadPtr msg) override {
    cluster->transport_->send(net::NodeAddress::client(client.id()),
                             net::NodeAddress::server(server), std::move(msg));
  }
  void arm_timer(double delay_seconds, std::uint64_t token) override {
    cluster->transport_->arm_timer(net::NodeAddress::client(client.id()),
                                  delay_seconds, token);
  }
  [[nodiscard]] double now() const override { return cluster->elapsed(); }
};

// --------------------------------------------------------------- cluster

namespace {

/// Builds the configured fabric. The TCP path wires the core wire codec
/// into the transport (hts_net cannot depend on hts_core, so the hooks are
/// injected here) and lists every initial server for the failure-detection
/// mesh. Servers spawned later by add_ring are reached lazily by traffic.
std::unique_ptr<net::Transport> make_transport(
    const ThreadedClusterConfig& cfg, const core::Topology& topo) {
  if (cfg.transport == ThreadedClusterConfig::TransportKind::kTcp) {
    net::TcpTransport::Options o;
    o.detection_delay_s = cfg.detection_delay_s;
    o.base_port = cfg.tcp_base_port;
    for (std::size_t g = 0; g < topo.total_servers(); ++g) {
      o.servers.push_back(static_cast<ProcessId>(g));
    }
    o.encode = [](const net::Payload& m, net::FrameWriter& w) {
      core::encode_message_into(m, w);
    };
    o.decode = [](std::string_view bytes) {
      return core::decode_message(bytes);
    };
    return std::make_unique<net::TcpTransport>(std::move(o));
  }
  return std::make_unique<net::InMemTransport>(cfg.detection_delay_s);
}

}  // namespace

ThreadedCluster::ThreadedCluster(ThreadedClusterConfig cfg)
    : cfg_(cfg),
      topo_(cfg.resolved_topology()),
      transport_(make_transport(cfg_, topo_)),
      epoch_(clk::steady_now()) {
  assert(topo_.valid());
  // One coding knob for the whole deployment: servers inherit it through the
  // options every spawn_server call copies; clients pick it up in add_client.
  cfg_.server_options.value_policy = cfg_.value_policy;
  // Pre-thread initialization: no node thread exists yet, and the analysis
  // does not check constructors — the guarded members are written bare.
  view_ = core::ClusterView{0, topo_};
  registry_ = std::make_shared<core::ViewRegistry>(view_);
  map_ = std::make_shared<const core::ShardMap>(topo_.n_rings());
  rings_by_epoch_.push_back(topo_.n_rings());
  if (cfg_.recorder != nullptr) {
    // Wall-clock seconds since construction: monotonic across every node
    // thread, comparable with OpResult timestamps (ClientContext::now()).
    cfg_.recorder->set_clock([this] { return elapsed(); });
  }
  for (RingId r = 0; r < static_cast<RingId>(topo_.n_rings()); ++r) {
    for (ProcessId local = 0; local < topo_.ring_size(r); ++local) {
      spawn_server(r, local, topo_.ring_size(r), topo_.global_id(r, local),
                   topo_.ring_base(r), [&](core::RingServer& server) {
                     server.install_view(core::ServerView{0, r, map_});
                   });
    }
  }
}

ThreadedCluster::~ThreadedCluster() { transport_->stop(); }

ThreadedCluster::ServerHost& ThreadedCluster::spawn_server(
    RingId ring, ProcessId local, std::size_t ring_size, ProcessId global,
    ProcessId ring_base,
    const std::function<void(core::RingServer&)>& before_register) {
  auto host = std::make_unique<ServerHost>(this, ring, local, ring_size,
                                           global, ring_base,
                                           cfg_.server_options);
  ServerHost* raw = host.get();
  if (cfg_.recorder != nullptr) {
    raw->server.attach_obs(obs::ServerProbe{
        cfg_.recorder, global,
        cfg_.recorder->registry().histogram("ring.batch_fill",
                                            kBatchFillBounds)});
  }
  if (before_register) before_register(raw->server);
  assert(servers_.size() == global &&
         "threaded fabric does not reuse retired global-id slots "
         "(grow-after-shrink); use the sim fabric for that sequence");
  servers_.push_back(std::move(host));
  transport_->register_node(
      net::NodeAddress::server(raw->global),
      [raw](net::NodeAddress from, net::PayloadPtr m) {
        raw->on_message(from, std::move(m));
      },
      [raw](ProcessId crashed) { raw->on_crash(crashed); });
  return *raw;
}

double ThreadedCluster::elapsed() const { return clk::seconds_since(epoch_); }

ThreadedCluster::BlockingClient& ThreadedCluster::add_client(
    ProcessId preferred_server) {
  core::ClientOptions opts;
  opts.n_servers = topo_.total_servers();
  opts.topology = topo_;
  opts.epoch = view().epoch;
  opts.preferred_server = preferred_server;
  opts.retry_timeout = cfg_.client_retry_timeout_s;
  opts.retry_multiplier = cfg_.client_retry_multiplier;
  opts.retry_cap = cfg_.client_retry_cap;
  opts.max_inflight = cfg_.client_max_inflight;
  opts.seed = cfg_.client_seed;
  opts.value_policy = cfg_.value_policy;
  const ClientId id = static_cast<ClientId>(clients_.size());
  auto host = std::make_unique<ClientHost>(this, id, opts);
  ClientHost* raw = host.get();
  if (cfg_.recorder != nullptr) {
    raw->client.attach_obs(obs::ClientProbe{
        cfg_.recorder, id,
        cfg_.recorder->registry().histogram("client.backoff_delay_s",
                                            kBackoffBounds)});
  }
  transport_->register_node(
      net::NodeAddress::client(id),
      [raw](net::NodeAddress from, net::PayloadPtr m) {
        raw->on_message(from, std::move(m));
      },
      nullptr,
      [raw](std::uint64_t token) { raw->on_timer(token); });
  clients_.push_back(std::move(host));
  handles_.push_back(
      std::unique_ptr<BlockingClient>(new BlockingClient(raw)));
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
  // Release builds too.
  const core::ClusterView current = view();
  core::MigrationCoordinator coord(core::MigrationPlan::grow(
      current, map_, n_servers, cfg_.value_policy.active()));
  const core::MigrationPlan& plan = coord.plan();

  // Spawn the new ring: views installed before the node registers, so its
  // thread never sees a serving window. Under the current view the new
  // servers own nothing — every client op parks until the flip.
  const RingId new_ring = static_cast<RingId>(topo_.n_rings());
  const ProcessId base = static_cast<ProcessId>(topo_.total_servers());
  for (ProcessId local = 0; local < n_servers; ++local) {
    spawn_server(new_ring, local, n_servers,
                 static_cast<ProcessId>(base + local), base,
                 [&](core::RingServer& server) {
                   server.install_view(
                       core::ServerView{current.epoch, new_ring, map_});
                   server.begin_view_change(
                       core::ServerView{plan.next.epoch, new_ring,
                                        plan.new_map});
                 });
  }
  return run_coordinator(coord);
}

Epoch ThreadedCluster::remove_last_ring() {
  core::MigrationCoordinator coord(core::MigrationPlan::shrink(
      view(), map_, cfg_.value_policy.active()));
  return run_coordinator(coord);
}

Epoch ThreadedCluster::run_coordinator(core::MigrationCoordinator& coord) {
  if (migrating_.exchange(true)) {
    throw std::logic_error("reconfiguration already in progress");
  }
  using Kind = core::MigrationCommand::Kind;
  const core::MigrationPlan& plan = coord.plan();
  for (;;) {
    core::MigrationCommand cmd = coord.next();
    if (cmd.kind == Kind::kDone) break;
    switch (cmd.kind) {
      case Kind::kPublish:
        registry_->publish(plan.next);
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
        ServerHost* host = servers_[target].get();
        auto reply = await_control(
            *transport_, target,
            [host, cmd = std::move(cmd)] { return host->run_command(cmd); });
        if (!reply) {
          coord.on_down();
        } else if (is_probe) {
          coord.on_probe(std::move(*reply));
        }
        break;
      }
    }
  }

  // Account migration wire bytes from the per-host atomics.
  migration_stats_.objects_moved += coord.copied();
  for (const auto& host : servers_) {
    migration_stats_.bytes_moved +=
        host->migrate_bytes.exchange(0, std::memory_order_relaxed);
    migration_stats_.dedup_bytes +=
        host->dedup_bytes.exchange(0, std::memory_order_relaxed);
  }
  ++migration_stats_.reconfigs;

  {
    const sync::MutexLock lock(views_mu_);
    topo_ = plan.next.topology;
    view_ = plan.next;
    map_ = plan.new_map;
    rings_by_epoch_.push_back(topo_.n_rings());
  }
  migrating_.store(false);
  return plan.next.epoch;
}

core::ClusterView ThreadedCluster::view() const {
  const sync::MutexLock lock(views_mu_);
  return view_;
}

std::vector<std::size_t> ThreadedCluster::rings_by_epoch() const {
  const sync::MutexLock lock(views_mu_);
  return rings_by_epoch_;
}

// ------------------------------------------------------------- accessors

bool ThreadedCluster::wait_quiescent(double timeout_s) {
  return transport_->wait_quiescent(timeout_s);
}

core::RingServer& ThreadedCluster::server(ProcessId p) {
  return servers_[p]->server;
}

lincheck::History ThreadedCluster::history() const {
  const sync::MutexLock lock(history_mu_);
  return history_;
}

RingTraffic ThreadedCluster::ring_traffic(RingId r) const {
  assert(r < topo_.n_rings());
  RingTraffic t;
  for (ProcessId local = 0; local < topo_.ring_size(r); ++local) {
    const ServerHost& host = *servers_[topo_.global_id(r, local)];
    t.transmissions +=
        host.ring_transmissions.load(std::memory_order_relaxed);
    t.bytes += host.ring_bytes.load(std::memory_order_relaxed);
    t.ring_messages += host.server.stats().ring_messages_out;
    t.batches += host.server.stats().batches_out;
  }
  return t;
}

std::vector<RingTraffic> ThreadedCluster::traffic_per_ring() const {
  std::vector<RingTraffic> v;
  v.reserve(topo_.n_rings());
  for (RingId r = 0; r < static_cast<RingId>(topo_.n_rings()); ++r) {
    v.push_back(ring_traffic(r));
  }
  return v;
}

void ThreadedCluster::export_metrics() {
  if (cfg_.recorder == nullptr) return;
  obs::MetricsRegistry& reg = cfg_.recorder->registry();

  std::vector<const core::RingServer*> all;
  for (const auto& host : servers_) {
    export_server_stats(reg, "server.s" + std::to_string(host->global),
                        host->server);
    all.push_back(&host->server);
  }
  export_server_totals(reg, all);

  std::vector<const core::ClientSession*> sessions;
  for (const auto& host : clients_) {
    export_client_stats(reg, "client.c" + std::to_string(host->client.id()),
                        host->client);
    sessions.push_back(&host->client);
  }
  export_client_totals(reg, sessions);

  // One transport carries everything here; per-node tx counters go under a
  // single "net.host" prefix (labels "s<id>" / "c<id>").
  obs::export_links(reg, "net.host", *transport_);

  export_rings_and_view(reg, traffic_per_ring(), view().epoch,
                        migration_stats_);
}

// ---------------------------------------------------------------- client

std::future<core::OpResult> ThreadedCluster::BlockingClient::launch(
    bool is_read, ObjectId object, Value v) {
  auto* host = static_cast<ClientHost*>(host_);
  auto promise = std::make_shared<std::promise<core::OpResult>>();
  std::future<core::OpResult> fut = promise->get_future();
  // Start the operation serialized with the client's handlers: inline here
  // while an in-memory client's loop is idle, else on its loop. The session
  // pipelines or queues it.
  host->cluster->transport_->execute(
      net::NodeAddress::client(host->client.id()),
      [host, is_read, object, v = std::move(v),
       promise = std::move(promise)]() mutable {
        host->submit(is_read, object, std::move(v), std::move(promise));
      });
  return fut;
}

core::OpResult ThreadedCluster::BlockingClient::run(bool is_read,
                                                    ObjectId object, Value v) {
  auto fut = launch(is_read, object, std::move(v));
  if (fut.wait_for(std::chrono::duration<double>(kOpTimeoutSeconds)) !=
      std::future_status::ready) {
    throw std::runtime_error("client operation timed out (deadlock?)");
  }
  return fut.get();
}

void ThreadedCluster::BlockingClient::write(ObjectId object, Value v) {
  (void)run(false, object, std::move(v));
}

Value ThreadedCluster::BlockingClient::read(ObjectId object) {
  return run(true, object, {}).value;
}

core::OpResult ThreadedCluster::BlockingClient::read_result(ObjectId object) {
  return run(true, object, {});
}

std::future<core::OpResult> ThreadedCluster::BlockingClient::async_write(
    ObjectId object, Value v) {
  return launch(false, object, std::move(v));
}

std::future<core::OpResult> ThreadedCluster::BlockingClient::async_read(
    ObjectId object) {
  return launch(true, object, {});
}

ClientId ThreadedCluster::BlockingClient::id() const {
  return static_cast<const ClientHost*>(host_)->client.id();
}

}  // namespace hts::harness
