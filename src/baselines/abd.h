// ABD-style majority-quorum multi-writer atomic register [Attiya/Bar-Noy/
// Dolev 95; Lynch/Shvartsman 97] — the paper's "Algorithm A" family and the
// classical baseline its Figure 1 argues against.
//
// Write(v):  phase 1 — query a majority for the highest tag;
//            phase 2 — store (tag+1, writer-id) at a majority.
// Read():    phase 1 — query a majority for (tag, value), pick the max;
//            phase 2 — write the max back to a majority (the read-inversion
//            fix that costs quorum reads their throughput), then return.
//
// Tolerates any minority of server crashes without a failure detector.
// Clients and servers are transport-agnostic state machines hosted by the
// same fabrics as the core protocol.
//
// Object namespace: like the core protocol, ABD serves a keyed namespace of
// independent registers — replicas keep one (tag, value) per ObjectId and
// client→server messages name their register (the default object costs no
// wire bytes, every other object 8, mirroring the core framing), so
// fig6/fig7-style multi-object comparisons are apples-to-apples. The client
// remains strictly one-outstanding-op; the namespace adds no pipelining.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "baselines/context.h"
#include "common/types.h"
#include "common/value.h"
#include "core/client.h"  // core::OpResult, core::ClientContext
#include "core/messages.h"  // core::object_wire
#include "net/payload.h"

namespace hts::baselines {

enum AbdMsgKind : std::uint16_t {
  kAbdReadTs = 0x0101,    // client → server: highest tag?
  kAbdReadTsAck = 0x0102, // server → client
  kAbdStore = 0x0103,     // client → server: store (tag, value)
  kAbdStoreAck = 0x0104,  // server → client
  kAbdGet = 0x0105,       // client → server: (tag, value)?
  kAbdGetAck = 0x0106,    // server → client
};

struct AbdReadTs final : net::Payload {
  AbdReadTs(ClientId c, RequestId r, std::uint32_t ph, ObjectId obj)
      : Payload(kAbdReadTs), client(c), req(r), phase(ph), object(obj) {}
  ClientId client;
  RequestId req;
  std::uint32_t phase;  // disambiguates retried/raced phases
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + 4 + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "AbdReadTs"; }
};

struct AbdReadTsAck final : net::Payload {
  AbdReadTsAck(RequestId r, std::uint32_t ph, Tag t)
      : Payload(kAbdReadTsAck), req(r), phase(ph), tag(t) {}
  RequestId req;
  std::uint32_t phase;
  Tag tag;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 4 + 12;
  }
  [[nodiscard]] std::string describe() const override { return "AbdReadTsAck"; }
};

struct AbdStore final : net::Payload {
  AbdStore(ClientId c, RequestId r, std::uint32_t ph, Tag t, Value v,
           ObjectId obj)
      : Payload(kAbdStore), client(c), req(r), phase(ph), tag(t),
        value(std::move(v)), object(obj) {}
  ClientId client;
  RequestId req;
  std::uint32_t phase;
  Tag tag;
  Value value;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + 4 + 12 + 4 + value.size() + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "AbdStore"; }
};

struct AbdStoreAck final : net::Payload {
  AbdStoreAck(RequestId r, std::uint32_t ph)
      : Payload(kAbdStoreAck), req(r), phase(ph) {}
  RequestId req;
  std::uint32_t phase;
  [[nodiscard]] std::size_t wire_size() const override { return 2 + 8 + 4; }
  [[nodiscard]] std::string describe() const override { return "AbdStoreAck"; }
};

struct AbdGet final : net::Payload {
  AbdGet(ClientId c, RequestId r, std::uint32_t ph, ObjectId obj)
      : Payload(kAbdGet), client(c), req(r), phase(ph), object(obj) {}
  ClientId client;
  RequestId req;
  std::uint32_t phase;
  ObjectId object;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 8 + 4 + core::object_wire(object);
  }
  [[nodiscard]] std::string describe() const override { return "AbdGet"; }
};

struct AbdGetAck final : net::Payload {
  AbdGetAck(RequestId r, std::uint32_t ph, Tag t, Value v)
      : Payload(kAbdGetAck), req(r), phase(ph), tag(t), value(std::move(v)) {}
  RequestId req;
  std::uint32_t phase;
  Tag tag;
  Value value;
  [[nodiscard]] std::size_t wire_size() const override {
    return 2 + 8 + 4 + 12 + 4 + value.size();
  }
  [[nodiscard]] std::string describe() const override { return "AbdGetAck"; }
};

/// Server: a passive replica answering the three quorum RPCs. Keeps one
/// (tag, value) per register; registers never touched are not materialised
/// and answer from the initial state (the namespace is unbounded).
class AbdServer {
 public:
  using Context = PeerContext;  // send_peer unused: no inter-server traffic

  AbdServer(ProcessId self, std::size_t n_servers);

  void on_client_message(const net::Payload& msg, Context& ctx);

  [[nodiscard]] ProcessId id() const { return self_; }
  [[nodiscard]] const Tag& current_tag(ObjectId object) const;
  [[nodiscard]] const Value& current_value(ObjectId object) const;
  [[nodiscard]] std::size_t object_count() const { return regs_.size(); }

 private:
  struct Register {
    Tag tag;
    Value value;
  };
  /// Created on first store; read-only lookups of untouched registers get
  /// the shared initial state.
  Register& reg_of(ObjectId object);
  [[nodiscard]] const Register* find_reg(ObjectId object) const;

  ProcessId self_;
  std::map<ObjectId, Register> regs_;
};

/// Client: drives the two-phase quorum protocol. Same surface as
/// core::ClientSession so fabrics and drivers host both identically.
class AbdClient {
 public:
  struct Options {
    std::size_t n_servers = 3;
    std::uint32_t writer_id = 0;  ///< tag tie-breaker, unique per client
    double retry_timeout = 0.5;   ///< full-operation restart timeout
  };

  AbdClient(ClientId id, Options opts);

  /// Starts a write/read of `object`. Strictly one op outstanding.
  RequestId begin_write(ObjectId object, Value v, core::ClientContext& ctx);
  RequestId begin_read(ObjectId object, core::ClientContext& ctx);


  void on_reply(const net::Payload& msg, core::ClientContext& ctx);
  void on_timer(std::uint64_t token, core::ClientContext& ctx);

  std::function<void(const core::OpResult&)> on_complete;

  [[nodiscard]] bool idle() const { return phase_ == Phase::kIdle; }
  [[nodiscard]] ClientId id() const { return id_; }

 private:
  enum class Phase : std::uint8_t {
    kIdle,
    kWriteQueryTs,   // write phase 1
    kWriteStore,     // write phase 2
    kReadCollect,    // read phase 1
    kReadWriteBack,  // read phase 2
  };

  [[nodiscard]] std::size_t majority() const {
    return opts_.n_servers / 2 + 1;
  }
  void broadcast(core::ClientContext& ctx, const net::PayloadPtr& msg);
  void finish(core::ClientContext& ctx);

  ClientId id_;
  Options opts_;
  Phase phase_ = Phase::kIdle;
  RequestId next_req_ = 1;
  RequestId req_ = 0;
  std::uint32_t phase_seq_ = 0;  // increases on every phase start / restart
  std::uint64_t timer_epoch_ = 0;

  // Operation in progress.
  bool is_read_ = false;
  ObjectId object_ = kDefaultObject;
  Value write_value_;
  double invoked_at_ = 0;
  std::uint32_t attempts_ = 1;

  // Phase bookkeeping.
  std::size_t acks_ = 0;
  Tag best_tag_;
  Value best_value_;
};

}  // namespace hts::baselines
