#include "round/round_model.h"

#include <cassert>

#include "core/messages.h"

namespace hts::round {

// ------------------------------------------------------------------ engine

void Api::send_ring(int to, net::PayloadPtr msg) {
  engine_.inboxes_[static_cast<std::size_t>(to)].ring_next.push_back(
      std::move(msg));
}

void Api::send_client_chan(int to, net::PayloadPtr msg) {
  engine_.inboxes_[static_cast<std::size_t>(to)].client_next.push_back(
      std::move(msg));
}

void Api::send_bulk(int to, net::PayloadPtr msg) {
  engine_.inboxes_[static_cast<std::size_t>(to)].bulk_next.push_back(
      std::move(msg));
}

std::uint64_t Api::round() const { return engine_.round(); }

int Engine::add_node(Node* node) {
  nodes_.push_back(node);
  inboxes_.emplace_back();
  return static_cast<int>(nodes_.size() - 1);
}

void Engine::run_round() {
  const auto n = nodes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Api api(*this, static_cast<int>(i));
    Inbox& in = inboxes_[i];
    if (!in.ring.empty()) {
      net::PayloadPtr msg = std::move(in.ring.front());
      in.ring.pop_front();
      nodes_[i]->on_ring(std::move(msg), api);
    }
    if (!in.client.empty()) {
      net::PayloadPtr msg = std::move(in.client.front());
      in.client.pop_front();
      nodes_[i]->on_client_chan(std::move(msg), api);
    }
    while (!in.bulk.empty()) {
      net::PayloadPtr msg = std::move(in.bulk.front());
      in.bulk.pop_front();
      nodes_[i]->on_bulk(std::move(msg), api);
    }
    nodes_[i]->end_of_round(api);
  }
  // Messages sent in round k become deliverable in round k+1.
  for (auto& in : inboxes_) {
    while (!in.ring_next.empty()) {
      in.ring.push_back(std::move(in.ring_next.front()));
      in.ring_next.pop_front();
    }
    while (!in.client_next.empty()) {
      in.client.push_back(std::move(in.client_next.front()));
      in.client_next.pop_front();
    }
    while (!in.bulk_next.empty()) {
      in.bulk.push_back(std::move(in.bulk_next.front()));
      in.bulk_next.pop_front();
    }
  }
  ++round_;
}

// ------------------------------------------------------------- Fig.1 toys

void AlgoAServer::on_ring(net::PayloadPtr msg, Api& api) {
  switch (msg->kind()) {
    case ToyRead::kKind: {
      // Probe the successor before answering (the quorum round trip).
      const auto& m = static_cast<const ToyRead&>(*msg);
      egress_.emplace_back((self_ + 1) % n_,
                           net::make_payload<ToyProbe>(self_, m.client_node));
      break;
    }
    case ToyProbe::kKind: {
      const auto& m = static_cast<const ToyProbe&>(*msg);
      egress_.emplace_back(m.origin_server,
                           net::make_payload<ToyProbeAck>(m.client_node));
      break;
    }
    case ToyProbeAck::kKind: {
      const auto& m = static_cast<const ToyProbeAck&>(*msg);
      api.send_client_chan(m.client_node, net::make_payload<ToyReadAck>());
      break;
    }
    default:
      break;
  }
}

void AlgoAServer::end_of_round(Api& api) {
  if (egress_.empty()) return;
  auto [to, msg] = std::move(egress_.front());
  egress_.pop_front();
  api.send_ring(to, std::move(msg));
}

void AlgoBServer::on_ring(net::PayloadPtr msg, Api& api) {
  if (msg->kind() == ToyRead::kKind) {
    const auto& m = static_cast<const ToyRead&>(*msg);
    api.send_client_chan(m.client_node, net::make_payload<ToyReadAck>());
  }
}

// -------------------------------------------------- ring algorithm adapter

namespace {

bool carries_value(const net::Payload& msg) {
  return msg.kind() == core::kPreWrite || msg.kind() == core::kSyncState;
}

/// Max parts per bundle: one value message plus piggybacked metadata. A real
/// NIC would cap frames; 16 keeps the model honest without throttling.
constexpr std::size_t kMaxBundleParts = 16;

}  // namespace

RingRoundServer::RingRoundServer(ProcessId self, std::size_t n_servers,
                                 std::function<int(ClientId)> client_node_of,
                                 core::ServerOptions opts)
    : server_(self, n_servers, opts),
      client_node_of_(std::move(client_node_of)) {}

void RingRoundServer::on_ring(net::PayloadPtr msg, Api& api) {
  current_api_ = &api;
  if (msg->kind() == Bundle::kKind) {
    const auto& bundle = static_cast<const Bundle&>(*msg);
    for (const auto& part : bundle.parts) {
      server_.on_ring_message(part, *this);
    }
  } else {
    server_.on_ring_message(std::move(msg), *this);
  }
  current_api_ = nullptr;
}

void RingRoundServer::on_client_chan(net::PayloadPtr msg, Api& api) {
  current_api_ = &api;
  if (msg->kind() == core::kClientRead) {
    const auto& m = static_cast<const core::ClientRead&>(*msg);
    server_.on_client_read(m.client, m.req, *this, m.object);
  }
  current_api_ = nullptr;
}

void RingRoundServer::on_bulk(net::PayloadPtr msg, Api& api) {
  current_api_ = &api;
  if (msg->kind() == core::kClientWrite) {
    const auto& m = static_cast<const core::ClientWrite&>(*msg);
    server_.on_client_write(m.client, m.req, m.value, *this, m.object);
  }
  current_api_ = nullptr;
}

void RingRoundServer::end_of_round(Api& api) {
  current_api_ = &api;
  std::vector<net::PayloadPtr> parts;
  int to = -1;
  bool have_value = false;
  if (held_value_msg_) {
    parts.push_back(std::move(held_value_msg_));
    held_value_msg_ = nullptr;
    have_value = true;
    to = static_cast<int>(server_.ring().successor(server_.id()));
  }
  while (parts.size() < kMaxBundleParts) {
    auto send = server_.next_ring_send();
    if (!send) break;
    to = static_cast<int>(send->to);
    if (carries_value(*send->msg)) {
      if (have_value) {
        // Second value this round: the model allows one value-bearing
        // message per round; hold it for the next bundle.
        held_value_msg_ = std::move(send->msg);
        break;
      }
      have_value = true;
    }
    parts.push_back(std::move(send->msg));
  }
  if (!parts.empty()) {
    assert(to >= 0);
    if (parts.size() == 1) {
      api.send_ring(to, std::move(parts.front()));
    } else {
      api.send_ring(to, net::make_payload<Bundle>(std::move(parts)));
    }
  }
  current_api_ = nullptr;
}

void RingRoundServer::send_client(ClientId client, net::PayloadPtr msg) {
  assert(current_api_ != nullptr);
  current_api_->send_client_chan(client_node_of_(client), std::move(msg));
}

// ------------------------------------------------------------ ring cluster

namespace {

/// Client context bound to the current round Api; timers never fire (the
/// round model is failure-free and synchronous).
struct RoundClientCtx final : core::ClientContext {
  Api* api;
  explicit RoundClientCtx(Api& a) : api(&a) {}
  void send_server(ProcessId server, net::PayloadPtr msg) override {
    // Write requests are the analysis' exogenous arrivals (bulk channel);
    // read requests compete for the per-round client receive slot.
    const bool write_ingest = msg->kind() == core::kClientWrite ||
                              msg->kind() == baselines::kTobWrite;
    if (write_ingest) {
      api->send_bulk(static_cast<int>(server), std::move(msg));
    } else {
      api->send_client_chan(static_cast<int>(server), std::move(msg));
    }
  }
  void arm_timer(double, std::uint64_t) override {}
  [[nodiscard]] double now() const override {
    return static_cast<double>(api->round());
  }
};

}  // namespace

std::unique_ptr<RingRoundCluster> RingRoundCluster::build(
    std::size_t n_servers, std::size_t readers_per_server,
    std::size_t writers_per_server, std::uint64_t measure_from,
    core::ServerOptions opts) {
  auto cluster = std::make_unique<RingRoundCluster>();
  RingRoundCluster* raw = cluster.get();

  // Server node indices coincide with ProcessIds (added first).
  auto client_node_of = [raw](ClientId c) {
    return raw->clients[static_cast<std::size_t>(c)]->node_index;
  };
  for (ProcessId p = 0; p < n_servers; ++p) {
    cluster->servers.push_back(std::make_unique<RingRoundServer>(
        p, n_servers, client_node_of, opts));
    const int idx = cluster->engine.add_node(cluster->servers.back().get());
    assert(idx == static_cast<int>(p));
    (void)idx;
  }

  auto add_client = [&](ProcessId server, bool is_reader) {
    auto slot = std::make_unique<ClientSlot>();
    ClientSlot* s = slot.get();
    const ClientId id = static_cast<ClientId>(cluster->clients.size());

    core::ClientOptions copts;
    copts.n_servers = n_servers;
    copts.preferred_server = server;
    copts.retry_timeout = 1e18;  // failure-free: never retry
    s->client = std::make_unique<core::ClientSession>(id, copts);

    s->client->on_complete = [s, measure_from](const core::OpResult& r) {
      const double latency = r.completed_at - r.invoked_at;
      s->stats.last_latency_rounds = latency;
      if (r.is_read) {
        ++s->stats.completed_reads;
      } else {
        ++s->stats.completed_writes;
      }
      if (static_cast<std::uint64_t>(r.invoked_at) >= measure_from) {
        ++s->stats.ops_in_window;
        s->stats.latency_sum_rounds += static_cast<std::uint64_t>(latency);
      }
      s->node->request_issue();
    };

    // Per-client value seed space; round-model runs are not lincheck'd, the
    // seeds only need to be non-degenerate.
    auto issue = [s, is_reader,
                  seed = (static_cast<std::uint64_t>(id) + 1) << 32](
                     Api& api) mutable {
      RoundClientCtx ctx(api);
      if (is_reader) {
        s->client->begin_read(kDefaultObject, ctx);
      } else {
        s->client->begin_write(kDefaultObject, Value::synthetic(seed++, 8),
                               ctx);
      }
    };
    auto reply = [s](net::PayloadPtr msg, Api& api) {
      RoundClientCtx ctx(api);
      s->client->on_reply(*msg, kNoProcess, ctx);
    };
    s->node = std::make_unique<ClientNode>(std::move(issue), std::move(reply));
    s->node_index = cluster->engine.add_node(s->node.get());
    cluster->clients.push_back(std::move(slot));
  };

  for (ProcessId p = 0; p < n_servers; ++p) {
    for (std::size_t r = 0; r < readers_per_server; ++r) add_client(p, true);
    for (std::size_t w = 0; w < writers_per_server; ++w) add_client(p, false);
  }
  return cluster;
}

// --------------------------------------------------------- TOB round adapter

/// Hosts baselines::TobServer as a round node: peer sends are buffered and
/// released one per round (the model's send budget); client requests arrive
/// like the ring adapter's (writes = exogenous bulk ingest, reads consume
/// the client receive slot).
class TobRoundServer final : public Node, public baselines::PeerContext {
 public:
  TobRoundServer(ProcessId self, std::size_t n,
                 std::function<int(ClientId)> client_node_of)
      : server_(self, n), client_node_of_(std::move(client_node_of)) {}

  void on_ring(net::PayloadPtr msg, Api& api) override {
    current_api_ = &api;
    server_.on_peer_message(std::move(msg), *this);
    current_api_ = nullptr;
  }
  void on_client_chan(net::PayloadPtr msg, Api& api) override {
    current_api_ = &api;
    if (msg->kind() == baselines::kTobRead) {
      server_.on_client_message(*msg, *this);
    }
    current_api_ = nullptr;
  }
  void on_bulk(net::PayloadPtr msg, Api& api) override {
    current_api_ = &api;
    if (msg->kind() == baselines::kTobWrite) {
      server_.on_client_message(*msg, *this);
    }
    current_api_ = nullptr;
  }
  void end_of_round(Api& api) override {
    if (egress_.empty()) return;
    auto [to, msg] = std::move(egress_.front());
    egress_.pop_front();
    api.send_ring(to, std::move(msg));
  }

  // baselines::PeerContext
  void send_peer(ProcessId to, net::PayloadPtr msg) override {
    egress_.emplace_back(static_cast<int>(to), std::move(msg));
  }
  void send_client(ClientId client, net::PayloadPtr msg) override {
    assert(current_api_ != nullptr);
    current_api_->send_client_chan(client_node_of_(client), std::move(msg));
  }

 private:
  baselines::TobServer server_;
  std::function<int(ClientId)> client_node_of_;
  std::deque<std::pair<int, net::PayloadPtr>> egress_;
  Api* current_api_ = nullptr;
};

TobRoundCluster::TobRoundCluster() = default;
TobRoundCluster::~TobRoundCluster() = default;

std::unique_ptr<TobRoundCluster> TobRoundCluster::build(
    std::size_t n_servers, std::size_t readers_per_server,
    std::size_t writers_per_server, std::uint64_t measure_from) {
  auto cluster = std::make_unique<TobRoundCluster>();
  TobRoundCluster* raw = cluster.get();
  auto client_node_of = [raw](ClientId c) {
    return raw->clients[static_cast<std::size_t>(c)]->node_index;
  };
  for (ProcessId p = 0; p < n_servers; ++p) {
    cluster->servers.push_back(
        std::make_unique<TobRoundServer>(p, n_servers, client_node_of));
    cluster->engine.add_node(cluster->servers.back().get());
  }

  auto add_client = [&](ProcessId server, bool is_reader) {
    auto slot = std::make_unique<ClientSlot>();
    ClientSlot* s = slot.get();
    const ClientId id = static_cast<ClientId>(cluster->clients.size());

    baselines::TobClient::Options copts;
    copts.n_servers = n_servers;
    copts.preferred_server = server;
    copts.retry_timeout = 1e18;
    s->client = std::make_unique<baselines::TobClient>(id, copts);

    s->client->on_complete = [s, measure_from](const core::OpResult& r) {
      const double latency = r.completed_at - r.invoked_at;
      s->stats.last_latency_rounds = latency;
      if (r.is_read) {
        ++s->stats.completed_reads;
      } else {
        ++s->stats.completed_writes;
      }
      if (static_cast<std::uint64_t>(r.invoked_at) >= measure_from) {
        ++s->stats.ops_in_window;
        s->stats.latency_sum_rounds += static_cast<std::uint64_t>(latency);
      }
      s->node->request_issue();
    };

    auto issue = [s, is_reader,
                  seed = (static_cast<std::uint64_t>(id) + 1) << 32](
                     Api& api) mutable {
      RoundClientCtx ctx(api);
      if (is_reader) {
        s->client->begin_read(kDefaultObject, ctx);
      } else {
        s->client->begin_write(kDefaultObject, Value::synthetic(seed++, 8),
                               ctx);
      }
    };
    auto reply = [s](net::PayloadPtr msg, Api& api) {
      RoundClientCtx ctx(api);
      s->client->on_reply(*msg, ctx);
    };
    s->node = std::make_unique<ClientNode>(std::move(issue), std::move(reply));
    s->node_index = cluster->engine.add_node(s->node.get());
    cluster->clients.push_back(std::move(slot));
  };

  for (ProcessId p = 0; p < n_servers; ++p) {
    for (std::size_t r = 0; r < readers_per_server; ++r) add_client(p, true);
    for (std::size_t w = 0; w < writers_per_server; ++w) add_client(p, false);
  }
  return cluster;
}

}  // namespace hts::round
