// The paper's synchronous round-based performance model (§2):
//
//   In each round k, every process pi (1) computes its message m(i,k),
//   (2) sends it to one or more processes, and (3) receives at most one
//   message sent at round k.
//
// Extra messages queue at the receiver (a collision/retransmission shows up
// as queueing delay), which is precisely how the model predicts throughput.
// Client↔server traffic travels on a dedicated network (the paper's testbed
// has two NICs per server), so each process has two independent inboxes —
// ring and client — each draining at one message per round.
//
// The engine hosts: the paper's ring algorithm (the *real* core::RingServer
// state machine, with commits piggybacked on the next value-bearing message,
// as §4.2 describes), the quorum and local-read toy algorithms of Figure 1,
// and the ABD / chain / TOB baselines for the §4 analytical table.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/tob.h"
#include "common/metrics.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"
#include "core/server.h"
#include "net/payload.h"

namespace hts::round {

class Engine;

/// Effect surface available to a node during its turn.
class Api {
 public:
  Api(Engine& e, int self) : engine_(e), self_(self) {}
  void send_ring(int to, net::PayloadPtr msg);
  void send_client_chan(int to, net::PayloadPtr msg);
  /// Exogenous ingest (client write requests): §4.2 *assumes* the arrival of
  /// one new write request per round as the input of its analysis; the bulk
  /// channel delivers without consuming the receive slots the model reasons
  /// about. Read requests must use the client channel — the one-per-round
  /// receive slot there is exactly what caps read throughput at 1/server.
  void send_bulk(int to, net::PayloadPtr msg);
  [[nodiscard]] std::uint64_t round() const;
  [[nodiscard]] int self() const { return self_; }

 private:
  Engine& engine_;
  int self_;
};

class Node {
 public:
  virtual ~Node() = default;
  /// At most one ring-inbox message per round.
  virtual void on_ring(net::PayloadPtr msg, Api& api) { (void)msg, (void)api; }
  /// At most one client-inbox message per round.
  virtual void on_client_chan(net::PayloadPtr msg, Api& api) {
    (void)msg, (void)api;
  }
  /// Bulk ingest: drained fully every round (see Api::send_bulk).
  virtual void on_bulk(net::PayloadPtr msg, Api& api) { (void)msg, (void)api; }
  /// Egress hook, after deliveries: send at most one ring message here.
  virtual void end_of_round(Api& api) { (void)api; }
};

class Engine {
 public:
  /// Returns the node's index.
  int add_node(Node* node);

  /// Runs one synchronous round: every node dequeues ≤1 message per inbox,
  /// then runs its egress hook. Messages sent in round k are deliverable in
  /// round k+1.
  void run_round();

  void run_rounds(std::uint64_t k) {
    for (std::uint64_t i = 0; i < k; ++i) run_round();
  }

  [[nodiscard]] std::uint64_t round() const { return round_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t ring_backlog(int node) const {
    return inboxes_[static_cast<std::size_t>(node)].ring.size();
  }

 private:
  friend class Api;
  struct Inbox {
    std::deque<net::PayloadPtr> ring;
    std::deque<net::PayloadPtr> client;
    std::deque<net::PayloadPtr> bulk;
    std::deque<net::PayloadPtr> ring_next;    // sent this round
    std::deque<net::PayloadPtr> client_next;  // sent this round
    std::deque<net::PayloadPtr> bulk_next;
  };

  std::uint64_t round_ = 0;
  std::vector<Node*> nodes_;
  std::vector<Inbox> inboxes_;
};

// ---------------------------------------------------------------------
// A multi-message round bundle: the paper's piggybacking. One bundle is one
// message in the model; the ring adapter packs one value-bearing pre-write
// plus any number of metadata commits into it (§4.2: "write messages are
// piggybacked on pending write messages without the need for explicit
// acknowledgements").
struct Bundle final : net::Payload {
  static constexpr std::uint16_t kKind = 0x7300;
  explicit Bundle(std::vector<net::PayloadPtr> parts)
      : Payload(kKind), parts(std::move(parts)) {}
  std::vector<net::PayloadPtr> parts;
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t s = 2;
    for (const auto& p : parts) s += p->wire_size();
    return s;
  }
  [[nodiscard]] std::string describe() const override {
    return "Bundle(" + std::to_string(parts.size()) + ")";
  }
};

// ---------------------------------------------------------------------
// Closed-loop round-model client: issues reads or writes back-to-back and
// records latency (rounds) and completions.

struct RoundClientStats {
  std::uint64_t completed_reads = 0;
  std::uint64_t completed_writes = 0;
  std::uint64_t latency_sum_rounds = 0;
  std::uint64_t ops_in_window = 0;
  double last_latency_rounds = 0;
};

/// Hosts a protocol client (core::ClientSession-shaped) as a round node.
/// The Issue functor starts the next operation; replies arrive on the client
/// channel.
class ClientNode final : public Node {
 public:
  using IssueFn = std::function<void(Api&)>;     // begin next op
  using ReplyFn = std::function<void(net::PayloadPtr, Api&)>;

  ClientNode(IssueFn issue, ReplyFn reply)
      : issue_(std::move(issue)), reply_(std::move(reply)) {}

  void on_client_chan(net::PayloadPtr msg, Api& api) override {
    reply_(std::move(msg), api);
  }
  void end_of_round(Api& api) override {
    if (want_issue_) {
      want_issue_ = false;
      issue_(api);
    }
  }

  /// Arms the next operation to be issued at the next egress.
  void request_issue() { want_issue_ = true; }

 private:
  IssueFn issue_;
  ReplyFn reply_;
  bool want_issue_ = true;  // first op fires in round 0
};

// ---------------------------------------------------------------------
// Figure 1 toy algorithms (3 servers in the paper; n works generally).

/// Algorithm A: majority-based read. The contacted server probes its ring
/// neighbour before answering (the quorum round-trip of Fig. 1). As in the
/// figure, client requests share the server's single receive channel with
/// probes and acks — that contention is what caps the throughput at
/// 1 op/round regardless of n.
class AlgoAServer final : public Node {
 public:
  AlgoAServer(int self, int n_servers) : self_(self), n_(n_servers) {}
  void on_ring(net::PayloadPtr msg, Api& api) override;
  void end_of_round(Api& api) override;

 private:
  int self_;
  int n_;
  std::deque<std::pair<int, net::PayloadPtr>> egress_;  // ≤1 send per round
};

/// Algorithm B: the server answers reads locally, no inter-server traffic —
/// every server turns one request into one reply per round.
class AlgoBServer final : public Node {
 public:
  void on_ring(net::PayloadPtr msg, Api& api) override;
};

/// Tiny request/reply payloads for the toy algorithms.
struct ToyRead final : net::Payload {
  static constexpr std::uint16_t kKind = 0x7401;
  explicit ToyRead(int client_node) : Payload(kKind), client_node(client_node) {}
  int client_node;
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] std::string describe() const override { return "ToyRead"; }
};
struct ToyProbe final : net::Payload {
  static constexpr std::uint16_t kKind = 0x7402;
  ToyProbe(int origin_server, int client_node)
      : Payload(kKind), origin_server(origin_server), client_node(client_node) {}
  int origin_server;
  int client_node;
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] std::string describe() const override { return "ToyProbe"; }
};
struct ToyProbeAck final : net::Payload {
  static constexpr std::uint16_t kKind = 0x7403;
  explicit ToyProbeAck(int client_node) : Payload(kKind), client_node(client_node) {}
  int client_node;
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] std::string describe() const override { return "ToyProbeAck"; }
};
struct ToyReadAck final : net::Payload {
  static constexpr std::uint16_t kKind = 0x7404;
  ToyReadAck() : Payload(kKind) {}
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
  [[nodiscard]] std::string describe() const override { return "ToyReadAck"; }
};

// ---------------------------------------------------------------------
// The real ring algorithm under round semantics.

/// Wraps core::RingServer as a round node. Ring egress: one Bundle per round
/// containing at most one value-bearing PreWrite plus any ready metadata
/// messages (commits / syncs). Client replies go out on the client channel
/// (dedicated network) in the same round.
class RingRoundServer final : public Node, public core::ServerContext {
 public:
  RingRoundServer(ProcessId self, std::size_t n_servers,
                  std::function<int(ClientId)> client_node_of,
                  core::ServerOptions opts = {});

  void on_ring(net::PayloadPtr msg, Api& api) override;
  void on_client_chan(net::PayloadPtr msg, Api& api) override;
  void on_bulk(net::PayloadPtr msg, Api& api) override;
  void end_of_round(Api& api) override;

  // core::ServerContext (client replies buffered for the current round)
  void send_client(ClientId client, net::PayloadPtr msg) override;

  [[nodiscard]] core::RingServer& server() { return server_; }

 private:
  core::RingServer server_;
  std::function<int(ClientId)> client_node_of_;
  net::PayloadPtr held_value_msg_;  // PreWrite that missed this round's bundle
  Api* current_api_ = nullptr;      // valid during a handler
};

/// Round-model cluster of the core algorithm plus closed-loop clients.
/// Used by bench/table_analytical and tests.
struct RingRoundCluster {
  struct ClientSlot {
    std::unique_ptr<core::ClientSession> client;
    std::unique_ptr<ClientNode> node;
    int node_index = -1;
    RoundClientStats stats;
  };

  Engine engine;
  std::vector<std::unique_ptr<RingRoundServer>> servers;
  std::vector<std::unique_ptr<ClientSlot>> clients;

  /// Builds n servers; `readers`/`writers` closed-loop clients per server.
  static std::unique_ptr<RingRoundCluster> build(std::size_t n_servers,
                                                 std::size_t readers_per_server,
                                                 std::size_t writers_per_server,
                                                 std::uint64_t measure_from,
                                                 core::ServerOptions opts = {});
};

// ---------------------------------------------------------------------
// TOB storage under round semantics — the §4 comparison row ("algorithms
// based on total order broadcast have throughput 1 for both reads and
// writes"). Peer traffic is buffered and emitted one message per round.

class TobRoundServer;

struct TobRoundCluster {
  // Out-of-line special members: TobRoundServer is only defined in the .cpp.
  TobRoundCluster();
  ~TobRoundCluster();

  struct ClientSlot {
    std::unique_ptr<baselines::TobClient> client;
    std::unique_ptr<ClientNode> node;
    int node_index = -1;
    RoundClientStats stats;
  };

  Engine engine;
  std::vector<std::unique_ptr<TobRoundServer>> servers;
  std::vector<std::unique_ptr<ClientSlot>> clients;

  static std::unique_ptr<TobRoundCluster> build(std::size_t n_servers,
                                                std::size_t readers_per_server,
                                                std::size_t writers_per_server,
                                                std::uint64_t measure_from);
};

}  // namespace hts::round
