// Chain replication [van Renesse & Schneider, OSDI'04] — the paper's §1
// comparison point: "servers are organized in a chain to ensure high
// throughput for replica updates... however, the reads (also called queries)
// are always directed to the same single server and are therefore not
// scalable."
//
// Updates enter at the HEAD, propagate down the chain, and the TAIL replies
// to the client; queries go to the TAIL only. Tail-applied state is
// committed by construction (everything upstream already has it), which
// gives linearizability. Crash recovery: the predecessor of a failed node
// splices it out and re-sends its unacknowledged updates; head/tail roles
// shift to the surviving ends (perfect failure detector, as in the paper's
// cluster model).
//
// Object namespace: the chain serves a keyed namespace of independent
// registers — one chain carries every register's updates in a single head
// sequence; each node keeps one (value, last-applied-seq) per ObjectId, and
// reads return the per-register state with tag {per-object seq, 0}
// (monotone per register, which is all the white-box tag checker needs).
// Client→server and head→successor messages name their register (default
// object costs no wire bytes, every other object 8, mirroring the core
// framing); acks identify the op by request id alone.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "baselines/context.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"
#include "core/messages.h"  // core::object_wire
#include "core/ring.h"  // RingView doubles as the chain membership view
#include "net/payload.h"

namespace hts::baselines {

enum ChainMsgKind : std::uint16_t {
  kChainWrite = 0x0201,     // client → head
  kChainWriteAck = 0x0202,  // tail → client
  kChainRead = 0x0203,      // client → tail
  kChainReadAck = 0x0204,   // tail → client
  kChainUpdate = 0x0205,    // node → successor (propagating update)
  kChainAckBack = 0x0206,   // node → predecessor (commit acknowledgement)
};

struct ChainWrite final : net::Payload {
  ChainWrite(ClientId c, RequestId r, Value v, ObjectId obj)
      : Payload(kChainWrite), client(c), req(r), value(std::move(v)),
        object(obj) {}
  ClientId client;
  RequestId req;
  Value value;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + 4 + value.size() + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "ChainWrite"; }
};

struct ChainWriteAck final : net::Payload {
  explicit ChainWriteAck(RequestId r) : Payload(kChainWriteAck), req(r) {}
  RequestId req;
  [[nodiscard]] std::size_t wire_size() const override { return 2 + 8; }
  [[nodiscard]] std::string describe() const override {
    return "ChainWriteAck";
  }
};

struct ChainRead final : net::Payload {
  ChainRead(ClientId c, RequestId r, ObjectId obj)
      : Payload(kChainRead), client(c), req(r), object(obj) {}
  ClientId client;
  RequestId req;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "ChainRead"; }
};

struct ChainReadAck final : net::Payload {
  ChainReadAck(RequestId r, Value v, Tag t)
      : Payload(kChainReadAck), req(r), value(std::move(v)), tag(t) {}
  RequestId req;
  Value value;
  Tag tag;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 4 + value.size() + 12;
  }
  [[nodiscard]] std::string describe() const override { return "ChainReadAck"; }
};

/// Update propagating down the chain. `seq` is assigned by the head and is
/// the total order of all writes across every register; per register the
/// subsequence is monotone, which is what read tags expose.
struct ChainUpdate final : net::Payload {
  ChainUpdate(std::uint64_t s, ClientId c, RequestId r, Value v,
              ObjectId obj)
      : Payload(kChainUpdate), seq(s), client(c), req(r), value(std::move(v)),
        object(obj) {}
  std::uint64_t seq;
  ClientId client;
  RequestId req;
  Value value;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + 8 + 4 + value.size() + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "ChainUpdate"; }
};

/// Commit acknowledgement flowing tail → head, clearing resend buffers.
struct ChainAckBack final : net::Payload {
  explicit ChainAckBack(std::uint64_t s) : Payload(kChainAckBack), seq(s) {}
  std::uint64_t seq;
  [[nodiscard]] std::size_t wire_size() const override { return 2 + 8; }
  [[nodiscard]] std::string describe() const override { return "ChainAckBack"; }
};

class ChainServer {
 public:
  using Context = PeerContext;

  ChainServer(ProcessId self, std::size_t n_servers);

  void on_client_message(const net::Payload& msg, Context& ctx);
  void on_peer_message(const net::Payload& msg, Context& ctx);
  void on_peer_crash(ProcessId crashed, Context& ctx);

  [[nodiscard]] ProcessId id() const { return self_; }
  [[nodiscard]] bool is_head() const;
  [[nodiscard]] bool is_tail() const;
  [[nodiscard]] ProcessId head() const;
  [[nodiscard]] ProcessId tail() const;
  [[nodiscard]] const Value& current_value(ObjectId object) const;
  [[nodiscard]] std::uint64_t applied_seq() const { return applied_seq_; }
  [[nodiscard]] std::size_t unacked() const { return sent_unacked_.size(); }
  [[nodiscard]] std::size_t object_count() const { return regs_.size(); }

 private:
  /// Per-register state: the value and the head sequence number of the last
  /// update applied to it (the read tag's timestamp — per-object monotone).
  struct Register {
    Value value;
    std::uint64_t seq = 0;
  };

  void apply_update(const ChainUpdate& u, Context& ctx);
  [[nodiscard]] std::optional<ProcessId> chain_successor() const;
  [[nodiscard]] std::optional<ProcessId> chain_predecessor() const;

  ProcessId self_;
  core::RingView view_;  // alive set; chain order = ascending alive ids

  std::map<ObjectId, Register> regs_;  // created on first update
  std::uint64_t applied_seq_ = 0;      // highest seq applied (all objects)
  std::uint64_t next_seq_ = 1;  // head's sequence counter

  // Updates forwarded to the successor but not yet acknowledged by the tail
  // (resent on successor crash). Keyed by seq, ordered.
  std::map<std::uint64_t, net::PayloadPtr> sent_unacked_;
  // Highest request id sequenced per client (write-retry deduplication).
  std::map<ClientId, RequestId> sequenced_;
  // Client to reply to when this node is tail, keyed by seq.
  std::map<std::uint64_t, std::pair<ClientId, RequestId>> to_ack_;
};

/// Client: writes to the head, reads from the tail; follows role changes by
/// retrying on timeout (it re-resolves head/tail from its static view of
/// crashes it has observed through failed attempts).
class ChainClient {
 public:
  struct Options {
    std::size_t n_servers = 3;
    double retry_timeout = 0.5;
  };

  ChainClient(ClientId id, Options opts);

  /// Starts a write/read of `object`. Strictly one op outstanding.
  RequestId begin_write(ObjectId object, Value v, core::ClientContext& ctx);
  RequestId begin_read(ObjectId object, core::ClientContext& ctx);

  void on_reply(const net::Payload& msg, core::ClientContext& ctx);
  void on_timer(std::uint64_t token, core::ClientContext& ctx);

  std::function<void(const core::OpResult&)> on_complete;

  [[nodiscard]] bool idle() const { return !outstanding_; }
  [[nodiscard]] ClientId id() const { return id_; }

 private:
  struct Outstanding {
    bool is_read;
    RequestId req;
    Value value;
    double invoked_at;
    std::uint32_t attempts = 1;
    ObjectId object = kDefaultObject;
  };

  void transmit(core::ClientContext& ctx);

  ClientId id_;
  Options opts_;
  RequestId next_req_ = 1;
  std::uint64_t timer_epoch_ = 0;
  // Guesses for head/tail, advanced cyclically on timeouts.
  ProcessId head_guess_ = 0;
  ProcessId tail_guess_;
  std::optional<Outstanding> outstanding_;
};

}  // namespace hts::baselines
