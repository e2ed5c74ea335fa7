// ClientSession — the client side of the protocol (pseudo-code lines 1–10
// plus the retry rule of §3: "when their request times out, they simply
// re-send it to another server"), generalised from "one register, one op" to
// a keyed object namespace with pipelined operations.
//
// Like the server, the session is a transport-agnostic state machine hosted
// by a fabric. A session pipelines up to ClientOptions::max_inflight
// operations, each addressed to a register (ObjectId); operations on the
// same object queue behind each other (per-object ordering), so at most one
// operation per object is in flight and ops on distinct objects overlap.
// Under a multi-ring Topology the session routes every op to its object's
// ring through a ShardRouter — one in-flight budget spans all rings, while
// retry rotation and the sticky server target stay per ring.
// Every in-flight operation has its own retry deadline and its own server
// target rotation; every attempt waits exactly retry_timeout, the paper's
// fixed interval. The session keeps one fabric timer,
// armed for the earliest deadline in flight: a completed op cancels nothing
// and a new op arms nothing unless its deadline comes first. Completion is
// reported through a callback so both the blocking (threaded) and
// event-driven (simulated) fabrics can host it.
//
// Every operation names its register; the paper's single register is
// kDefaultObject. Every session carries an epoch'd view (epoch + topology);
// the simulated and threaded fabrics also hand it a view provider, which it
// consults only on an EpochNack or a retry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "code/policy.h"
#include "common/types.h"
#include "common/value.h"
#include "core/messages.h"
#include "core/reconfig.h"
#include "core/topology.h"
#include "net/payload.h"
#include "obs/probe.h"

namespace hts::core {

class ClientContext {
 public:
  virtual void send_server(ProcessId server, net::PayloadPtr msg) = 0;
  /// Arms a one-shot timer; the fabric calls on_timer(token) after `delay`
  /// seconds. Tokens tell the session's live timer from superseded ones.
  virtual void arm_timer(double delay_seconds, std::uint64_t token) = 0;
  virtual double now() const = 0;
  virtual ~ClientContext() = default;
};

struct ClientOptions {
  /// Single-ring facade: size of the one ring when `topology` is unset.
  std::size_t n_servers = 1;
  ProcessId preferred_server = 0;  ///< first server contacted (global id)

  /// Deployment shape: R independent rings behind a deterministic shard map
  /// (core::Topology). Unset = Topology::single(n_servers), the pre-sharding
  /// deployment — routing, rotation and wire traffic are bit-for-bit the
  /// single-ring client. When set, ops route to their object's ring and the
  /// session pipelines across rings from one in-flight budget; retry
  /// rotation and the sticky target are kept per ring (ShardRouter).
  std::optional<Topology> topology;

  /// Retry delay (seconds): every attempt of an op waits exactly this long
  /// for its reply before the op is re-sent to the next server (§3). Huge
  /// timeouts mean "never retry".
  double retry_timeout = 0.25;

  /// Maximum operations in flight at once (across distinct objects). Ops on
  /// an object with an op already in flight are queued, preserving
  /// per-object order. 1 = the original one-outstanding-op client.
  std::size_t max_inflight = 1;

  /// Epoch of the view `topology` describes (0 = the boot view). Sessions
  /// created after a reconfiguration start at the deployment's current
  /// epoch so their first EpochNack is not a spurious refresh.
  Epoch epoch = 0;

  /// Coded value plane (DESIGN.md §Coded values, D11). Inactive by default:
  /// every write travels whole (ClientWrite) and the wire stays bit-for-bit
  /// the replicated protocol. With k >= 2, a write whose value clears
  /// `min_value_size` is MDS-encoded into n fragments (n = the op's ring
  /// size) and fanned out as FragWrite messages — each server receives and
  /// stores |v|/k — and a read of a coded register reconstructs from any k
  /// fragments (CodedReadAck + FragFetch). Rings smaller than k fall back
  /// to replication per write.
  code::ValuePolicy value_policy;
};

/// Completion record handed to the callbacks.
struct OpResult {
  bool is_read = false;
  ObjectId object = kDefaultObject;
  /// Shard that served the op: the ring of the replying server when the
  /// fabric identified it (served_by), else the ring the op was routed to.
  RingId ring = kDefaultRing;
  /// Epoch the serving ring completed the op in (from the reply frame; 0
  /// for a never-reconfigured deployment). The epoch-aware lincheck pass
  /// verifies `ring` owns `object` under this epoch.
  Epoch epoch = 0;
  RequestId req = 0;
  Value value;          // read result (empty for writes)
  Tag tag;              // tag of the read value (white-box, for checking)
  double invoked_at = 0;
  double completed_at = 0;
  std::uint32_t attempts = 1;          // 1 = no retry was needed
  ProcessId served_by = kNoProcess;    // server whose reply completed the op
};

/// Read request ids carry this bit: reads and writes draw from disjoint
/// per-client sequences, so WRITE ids are gapless in issue order. Servers
/// deduplicate retried writes with an exact watermark over that gapless
/// space (DESIGN.md D6); reads never enter dedup state, so their ids only
/// need to be unique, which the disjoint space guarantees.
inline constexpr RequestId kReadRequestBit = 1ull << 63;

class ClientSession {
 public:
  ClientSession(ClientId id, ClientOptions opts);

  /// Starts a write of `object`. Queues (never blocks, never asserts) when
  /// the pipeline is full or the object already has an op in flight.
  RequestId begin_write(ObjectId object, Value v, ClientContext& ctx);

  /// Starts a read of `object`.
  RequestId begin_read(ObjectId object, ClientContext& ctx);

  /// Feeds a server reply (ClientWriteAck / ClientReadAck). `from` is the
  /// replying server (fabrics know the sender); it is reported as
  /// OpResult::served_by so tests need not infer which server answered.
  /// A host that does not track the sender passes kNoProcess.
  void on_reply(const net::Payload& msg, ProcessId from, ClientContext& ctx);

  /// Timer callback from the fabric: retries every op whose deadline has
  /// passed, then re-arms. Superseded tokens are ignored.
  void on_timer(std::uint64_t token, ClientContext& ctx);

  /// A completion callback; invoked exactly once per begin_*.
  std::function<void(const OpResult&)> on_complete;

  /// Where the session fetches the latest ClusterView (epoch + topology) —
  /// typically a fabric's core::ViewRegistry (a configuration service in a
  /// real deployment). Consulted on an EpochNack and before every timeout
  /// retry; never consulted while the view keeps answering, so a session
  /// with no provider (or a static registry) behaves bit-for-bit like the
  /// fixed-topology client. Adopt a new view re-routes queued and retried
  /// ops through the new epoch's shard map.
  using ViewProvider = std::function<ClusterView()>;
  void set_view_provider(ViewProvider provider) {
    view_provider_ = std::move(provider);
  }

  /// The epoch of the session's current view (0 until a refresh advances it).
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t epoch_nacks() const { return epoch_nacks_; }
  [[nodiscard]] std::uint64_t view_refreshes() const {
    return view_refreshes_;
  }

  [[nodiscard]] bool idle() const {
    return inflight_.empty() && backlog_.empty();
  }
  [[nodiscard]] std::size_t inflight_count() const { return inflight_.size(); }
  [[nodiscard]] std::size_t backlog_count() const { return backlog_.size(); }
  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] std::uint64_t retries() const { return total_retries_; }
  /// Sticky-target rotations: retries that moved to another server of the
  /// same ring (a retry after a view refresh re-routes instead).
  [[nodiscard]] std::uint64_t rotations() const { return rotations_; }
  /// Coded plane (D11): values MDS-encoded on write / reconstructed on
  /// read, and fragments dropped for a failed checksum. All zero unless
  /// ClientOptions::value_policy is active.
  [[nodiscard]] std::uint64_t coded_encodes() const { return encodes_; }
  [[nodiscard]] std::uint64_t coded_decodes() const { return decodes_; }
  [[nodiscard]] std::uint64_t frag_corrupt() const { return frag_corrupt_; }

  /// Attaches this session to a run's observability recorder (wire-silent).
  void attach_obs(obs::ClientProbe probe) { probe_ = probe; }
  /// The resolved deployment shape (Topology::single(n_servers) when the
  /// options carried no explicit topology).
  [[nodiscard]] const Topology& topology() const {
    return router_.topology();
  }
  [[nodiscard]] const ShardRouter& router() const { return router_; }

 private:
  struct Op {
    ObjectId object = kDefaultObject;
    RingId ring = kDefaultRing;         // shard serving `object`
    bool is_read = false;
    RequestId req = 0;
    Value value;  // pending write payload (re-sent on retry)
    double invoked_at = 0;
    std::uint32_t attempts = 0;         // transmissions so far
    ProcessId target = 0;               // next server to contact (global id)
    double retry_at = 0;                // retry deadline (ctx.now() clock)
    std::uint64_t retry_seq = 0;        // arm order among equal deadlines

    // Coded-read fetch phase (D11): set by a CodedReadAck naming the
    // committed tag; fragments accumulate (CRC-verified, by index) until k
    // distinct ones reconstruct the value. A retry resets all of it and
    // restarts with a plain ClientRead.
    bool fetching = false;
    Tag frag_tag;
    CodedShape frag_shape;
    Epoch frag_epoch = 0;
    ProcessId frag_from = kNoProcess;   // server whose CodedReadAck led here
    std::map<std::uint8_t, std::string> frag_parts;
  };

  /// Moves backlog ops into flight while capacity and object slots allow.
  void dispatch(ClientContext& ctx);

  /// (Re)transmits an in-flight op and sets its retry deadline; returns
  /// the delay to that deadline.
  double transmit(Op& op, ClientContext& ctx);

  /// Arms the session's timer `delay` seconds ahead, for deadline `at`,
  /// unless the armed one fires by then.
  void arm_retry(double at, double delay, ClientContext& ctx);

  /// Times out one op: rotates (or re-routes) and re-sends it.
  void retry(Op& op, ClientContext& ctx);

  /// Pulls the latest view from the provider; on an epoch advance, adopts
  /// the new topology into the router and returns true.
  bool refresh_view();

  /// Re-derives `op`'s ring and target from the current view (after a
  /// refresh moved its object, or its ring disappeared).
  void reroute(Op& op);

  /// Folds a reply's fragments into the op's fetch state (CRC-verified,
  /// distinct indices only).
  void accept_parts(Op& op, const std::vector<FragPart>& parts);

  /// Completes an in-flight op with the reply of server `from`: records
  /// the result, frees the op's slot and dispatches queued work, then
  /// reports it through on_complete. Consumes the inflight entry.
  void complete(std::map<RequestId, Op>::iterator it, ProcessId from,
                Epoch epoch, Value value, const Tag& tag, ClientContext& ctx);

  /// Completes the coded read if k distinct fragments have arrived.
  /// Consumes the inflight entry on success.
  bool try_complete_coded(std::map<RequestId, Op>::iterator it,
                          ClientContext& ctx);

  ClientId id_;
  ClientOptions opts_;
  RequestId next_write_req_ = 1;
  RequestId next_read_req_ = 1;  // flagged with kReadRequestBit on the wire
  /// Routes each op to its object's ring and keeps, per ring, the server the
  /// next dispatched op starts contacting: sticks to the server the last
  /// retry rotated onto, so one dead preferred server does not tax every
  /// subsequent operation with a timeout (the original client's
  /// session-level target, generalised to many in-flight ops and many
  /// rings).
  ShardRouter router_;
  Epoch epoch_ = 0;  ///< epoch of the view router_ was built from
  ViewProvider view_provider_;
  std::uint64_t timer_seq_ = 0;    // tokens handed to the fabric
  std::uint64_t timer_token_ = 0;  // the armed timer (0: none)
  double timer_at_ = 0;            // the armed timer's deadline
  std::uint64_t retry_seq_ = 0;    // source of Op::retry_seq
  std::uint64_t total_retries_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t epoch_nacks_ = 0;
  std::uint64_t view_refreshes_ = 0;
  std::uint64_t encodes_ = 0;       // coded writes encoded (D11)
  std::uint64_t decodes_ = 0;       // coded reads reconstructed
  std::uint64_t frag_corrupt_ = 0;  // fragments failing their CRC
  obs::ClientProbe probe_;  // detached (all-null) unless a fabric attaches

  std::map<RequestId, Op> inflight_;           // issue-ordered
  std::deque<Op> backlog_;                     // waiting for a slot
  std::unordered_set<ObjectId> active_objects_;
};

/// One exported ClientSession counter: its metric name and its accessor.
struct ClientStatField {
  const char* name;
  std::uint64_t (ClientSession::*get)() const;
};

/// The one list of ClientSession counters, in export order: the metrics
/// export walks it per session and sums it across the fleet.
inline constexpr ClientStatField kClientStatFields[] = {
    {"retries", &ClientSession::retries},
    {"rotations", &ClientSession::rotations},
    {"epoch_nacks", &ClientSession::epoch_nacks},
    {"view_refreshes", &ClientSession::view_refreshes},
    {"code.encodes", &ClientSession::coded_encodes},
    {"code.decodes", &ClientSession::coded_decodes},
    {"frag_corrupt", &ClientSession::frag_corrupt},
};

}  // namespace hts::core
