// Total-order-broadcast storage — the paper's §1/§4 modular alternative: a
// register built on a ring-based TOB primitive [Totem'95; Guerraoui et al.
// DSN'06]. Atomicity is trivial (every read AND write is totally ordered),
// which is exactly why it cannot scale: reads consume ring bandwidth like
// writes, so read throughput stays flat as servers are added.
//
// The TOB here is a Totem-style token ring: a token carrying the next
// sequence number rotates; the holder stamps its queued operations and emits
// them around the ring; FIFO links deliver operations in sequence order.
// The token parks at its holder after a full idle rotation and is recalled
// by a nudge message, so an idle system is quiescent (a simulator must
// terminate). Crash recovery for the token protocol is out of scope
// (documented in DESIGN.md): benchmarks and tests run it failure-free.
//
// Object namespace: one token ring totally orders the operations of every
// register; each server keeps one (value, last-applied-seq) per ObjectId and
// reads snapshot their register at their place in the total order with tag
// {per-object seq, 0}. Client→server and ring TobOp messages name their
// register (default object free, others 8 bytes, as in the core framing).
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
#include "net/payload.h"

namespace hts::baselines {

enum TobMsgKind : std::uint16_t {
  kTobWrite = 0x0301,
  kTobWriteAck = 0x0302,
  kTobRead = 0x0303,
  kTobReadAck = 0x0304,
  kTobOp = 0x0305,     // ring: a totally-ordered operation
  kTobToken = 0x0306,  // ring: the sequencing token
  kTobNudge = 0x0307,  // ring: recall a parked token
};

struct TobWrite final : net::Payload {
  TobWrite(ClientId c, RequestId r, Value v, ObjectId obj)
      : Payload(kTobWrite), client(c), req(r), value(std::move(v)),
        object(obj) {}
  ClientId client;
  RequestId req;
  Value value;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + 4 + value.size() + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "TobWrite"; }
};

struct TobWriteAck final : net::Payload {
  explicit TobWriteAck(RequestId r) : Payload(kTobWriteAck), req(r) {}
  RequestId req;
  [[nodiscard]] std::size_t wire_size() const override { return 2 + 8; }
  [[nodiscard]] std::string describe() const override { return "TobWriteAck"; }
};

struct TobRead final : net::Payload {
  TobRead(ClientId c, RequestId r, ObjectId obj)
      : Payload(kTobRead), client(c), req(r), object(obj) {}
  ClientId client;
  RequestId req;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "TobRead"; }
};

struct TobReadAck final : net::Payload {
  TobReadAck(RequestId r, Value v, Tag t)
      : Payload(kTobReadAck), req(r), value(std::move(v)), tag(t) {}
  RequestId req;
  Value value;
  Tag tag;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 4 + value.size() + 12;
  }
  [[nodiscard]] std::string describe() const override { return "TobReadAck"; }
};

struct TobOp final : net::Payload {
  TobOp(std::uint64_t s, ProcessId o, ClientId c, RequestId r, bool rd,
        Value v, ObjectId obj)
      : Payload(kTobOp), seq(s), origin(o), client(c), req(r), is_read(rd),
        value(std::move(v)), object(obj) {}
  std::uint64_t seq;
  ProcessId origin;
  ClientId client;
  RequestId req;
  bool is_read;
  Value value;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 4 + 8 + 8 + 1 + 4 + value.size() +
           core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override {
    return "TobOp{seq=" + std::to_string(seq) + "}";
  }
};

struct TobToken final : net::Payload {
  TobToken(std::uint64_t next, std::uint32_t idle)
      : Payload(kTobToken), next_seq(next), idle_hops(idle) {}
  std::uint64_t next_seq;
  std::uint32_t idle_hops;
  [[nodiscard]] std::size_t wire_size() const override { return 2 + 8 + 4; }
  [[nodiscard]] std::string describe() const override { return "TobToken"; }
};

struct TobNudge final : net::Payload {
  explicit TobNudge(ProcessId o) : Payload(kTobNudge), origin(o) {}
  ProcessId origin;
  [[nodiscard]] std::size_t wire_size() const override { return 2 + 4; }
  [[nodiscard]] std::string describe() const override { return "TobNudge"; }
};

class TobServer {
 public:
  using Context = PeerContext;

  /// Server 0 starts holding the (parked) token with next_seq = 1.
  TobServer(ProcessId self, std::size_t n_servers);

  void on_client_message(const net::Payload& msg, Context& ctx);
  void on_peer_message(net::PayloadPtr msg, Context& ctx);

  [[nodiscard]] ProcessId id() const { return self_; }
  [[nodiscard]] const Value& current_value(ObjectId object) const;
  [[nodiscard]] std::uint64_t applied_seq() const { return applied_seq_; }
  [[nodiscard]] bool holds_token() const { return token_held_; }
  [[nodiscard]] std::size_t object_count() const { return regs_.size(); }

 private:
  struct QueuedOp {
    ClientId client;
    RequestId req;
    bool is_read;
    Value value;
    ObjectId object = kDefaultObject;
  };
  /// Per-register state; `seq` is the total-order position of the last
  /// write applied to this register (the read tag's timestamp).
  struct Register {
    Value value;
    std::uint64_t seq = 0;
  };

  [[nodiscard]] ProcessId successor() const {
    return static_cast<ProcessId>((self_ + 1) % n_);
  }

  void enqueue_client_op(QueuedOp op, Context& ctx);
  void stamp_queue_and_release(std::uint64_t next_seq, std::uint32_t idle,
                               Context& ctx);
  void deliver_in_order(Context& ctx);
  void apply(const TobOp& op, Context& ctx);

  ProcessId self_;
  std::size_t n_;

  std::map<ObjectId, Register> regs_;  // created on first write
  std::uint64_t applied_seq_ = 0;

  bool token_held_ = false;
  std::uint64_t parked_next_seq_ = 1;

  std::deque<QueuedOp> queue_;
  std::map<std::uint64_t, net::PayloadPtr> reorder_buffer_;
  std::map<ClientId, RequestId> sequenced_;  // write-retry dedup

  /// Replies for ops we originated, deferred until the op completes its
  /// circulation (stability — Totem's safe delivery). Reads snapshot the
  /// register at their place in the total order.
  struct DeferredReply {
    ClientId client;
    RequestId req;
    bool is_read;
    Value read_value;
    Tag read_tag;
  };
  std::map<std::uint64_t, DeferredReply> awaiting_return_;
};

/// Client — same surface as the other protocols' clients.
class TobClient {
 public:
  struct Options {
    std::size_t n_servers = 3;
    ProcessId preferred_server = 0;
    double retry_timeout = 0.5;
  };

  TobClient(ClientId id, Options opts);

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
  ProcessId target_;
  RequestId next_req_ = 1;
  std::uint64_t timer_epoch_ = 0;
  std::optional<Outstanding> outstanding_;
};

}  // namespace hts::baselines
