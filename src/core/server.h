// RingServer — the server side of the paper's atomic storage algorithm
// (pseudo-code lines 11–93), as a deterministic, transport-agnostic state
// machine, generalised to a keyed namespace of independent registers.
//
// The state machine is hosted by a fabric (discrete-event simulator, threaded
// in-memory transport, or the synchronous round model). Inputs arrive through
// the on_* handlers; client-bound replies are pushed through ServerContext;
// ring-bound traffic is *pulled* by the fabric via next_ring_send() so that
// the fairness mechanism — not the network queue — decides what is sent
// whenever the ring link is free. This mirrors the paper's model where a
// server emits at most one ring message per round.
//
// Multi-object layout (DESIGN.md §Multi-object): everything the paper's
// pseudo-code keeps per register — tag, value, pending_write_set, parked
// reads, the origin's in-flight writes — lives in one ObjectState record,
// keyed by ObjectId. Everything that belongs to the *server* — the ring view,
// the fairness scheduler with its per-origin nb_msg counters, the local write
// queue, the urgent queue, retry deduplication — stays singular, so one ring
// and one batching pipeline carry the traffic of every object and commits for
// many objects amortise into one train.
//
// Correctness-critical behaviours beyond the paper's pseudo-code are flagged
// with DESIGN.md deviation numbers (D1..D6).
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "code/fragment_store.h"
#include "code/policy.h"
#include "common/types.h"
#include "common/value.h"
#include "core/fairness.h"
#include "core/messages.h"
#include "core/pending_set.h"
#include "core/reconfig.h"
#include "core/ring.h"
#include "net/payload.h"
#include "obs/probe.h"

namespace hts::core {

/// Effect sink implemented by the hosting fabric. Only client-bound traffic
/// goes through here; ring traffic is pulled (see next_ring_send).
class ServerContext {
 public:
  virtual void send_client(ClientId client, net::PayloadPtr msg) = 0;
  virtual ~ServerContext() = default;
};

/// One ring transmission: a message for this server's current successor.
struct RingSend {
  ProcessId to = kNoProcess;
  net::PayloadPtr msg;
};

/// One batched ring transmission: up to ServerOptions::max_batch messages for
/// this server's current successor, chosen one at a time by the fairness
/// policy — the paper's nb_msg rule holds *within* a batch exactly as it
/// does across batches. Messages of different objects share trains freely.
struct RingBatchSend {
  ProcessId to = kNoProcess;
  std::vector<net::PayloadPtr> msgs;

  /// Wire form shared by every fabric: a lone message travels unwrapped —
  /// the max_batch = 1 bit-for-bit guarantee — and a train becomes one
  /// RingBatch frame. Consumes msgs.
  [[nodiscard]] net::PayloadPtr into_wire() &&;
};

struct ServerOptions {
  /// D5: remember completed (client, request) pairs and ack retried writes
  /// without re-applying them. Disabling this reproduces the paper's exact
  /// pseudo-code (and its duplicate-application window).
  bool dedup_retries = true;

  /// Read fast path: serve a read immediately when the locally applied tag
  /// already dominates every pending pre-write. OFF by default — the paper
  /// parks whenever the pending set is non-empty. Ablation benches flip it.
  bool read_fastpath = false;

  /// Ablation: disable the nb_msg fairness mechanism and always drain the
  /// forward queue before initiating local writes. Under upstream
  /// saturation this starves this server's own clients — the failure mode
  /// the paper's fairness rule exists to prevent (§3).
  bool fairness = true;

  /// Maximum number of ring messages a fabric may coalesce into one
  /// RingBatch transmission (next_ring_batch). Amortises per-message costs
  /// (CPU/syscall, frame headers) across the batch — the generalisation of
  /// the paper's §4.2 commit piggybacking. 1 = unbatched: every pull emits
  /// exactly one protocol message, bit-for-bit the paper's behaviour (see
  /// DESIGN.md §Batching). The default matches the 16-message coalescing
  /// window the TCP-stream model used previously.
  std::size_t max_batch = 16;

  /// Coded value plane (DESIGN.md §Coded values, D11). The default policy
  /// is inactive: no fragment store is ever allocated, no fragment message
  /// is ever emitted, and the wire stays bit-for-bit the replicated
  /// protocol (golden-pinned). A server only consults `gc_keep` of this —
  /// the encode decision is the client's — plus `active()` as a sanity
  /// gate for serving fragment traffic.
  code::ValuePolicy value_policy;
};

/// Counters exposed for tests and ablation benches.
struct ServerStats {
  std::uint64_t pre_writes_initiated = 0;
  std::uint64_t commits_sent = 0;
  std::uint64_t forwards = 0;
  std::uint64_t ring_messages_in = 0;
  std::uint64_t reads_immediate = 0;
  std::uint64_t reads_parked = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t syncs_sent = 0;
  std::uint64_t dedup_acks = 0;
  std::uint64_t ring_messages_out = 0;  ///< protocol messages pulled
  std::uint64_t batches_out = 0;        ///< multi-message batches formed
  // Reconfiguration (DESIGN.md D8):
  std::uint64_t epoch_nacks = 0;        ///< client ops refused with a hint
  std::uint64_t transition_parked = 0;  ///< client ops parked until the flip
  std::uint64_t migrations_in = 0;      ///< registers installed from a copy
  std::uint64_t dedup_merges = 0;       ///< MigrateDedup messages merged
  // Observability (PR6): per-kind ingress, queue high-watermarks, migration
  // volume. Always-on plain counters — one add per event, no branches.
  std::uint64_t pre_writes_in = 0;      ///< PreWrite ring messages received
  std::uint64_t commits_in = 0;         ///< WriteCommit ring messages received
  std::uint64_t syncs_in = 0;           ///< SyncState ring messages received
  std::uint64_t client_writes_in = 0;   ///< on_client_write calls
  std::uint64_t client_reads_in = 0;    ///< on_client_read calls
  std::uint64_t write_queue_max = 0;    ///< write queue high-watermark
  std::uint64_t urgent_queue_max = 0;   ///< urgent queue high-watermark
  std::uint64_t forward_queue_max = 0;  ///< fairness queue high-watermark
  std::uint64_t migrate_bytes_in = 0;   ///< MigrateState wire bytes received
  // Coded value plane (D11).
  std::uint64_t frag_writes_in = 0;     ///< FragWrite messages received
  std::uint64_t frag_fetches_in = 0;    ///< FragFetch messages received
  std::uint64_t coded_commits = 0;      ///< commits applied in coded mode
  std::uint64_t frag_missing = 0;       ///< coded commits with nothing staged
  std::uint64_t frag_corrupt = 0;       ///< fragments dropped on CRC mismatch
  std::uint64_t frag_repairs = 0;       ///< fragments regenerated via repair
  std::uint64_t gc_runs = 0;            ///< GC passes that reclaimed bytes
  std::uint64_t gc_reclaimed_bytes = 0; ///< fragment bytes reclaimed by GC
  std::uint64_t frag_late_binds = 0;    ///< fragments bound after their commit
};

/// One exported ServerStats counter: its metric name and its field.
struct ServerStatField {
  const char* name;
  std::uint64_t ServerStats::*field;
};

/// The one field list of ServerStats, in export order: the metrics export
/// walks it per server and sums it across the cluster by member pointer.
inline constexpr ServerStatField kServerStatFields[] = {
    {"pre_writes_initiated", &ServerStats::pre_writes_initiated},
    {"commits_sent", &ServerStats::commits_sent},
    {"forwards", &ServerStats::forwards},
    {"ring_messages_in", &ServerStats::ring_messages_in},
    {"ring_messages_out", &ServerStats::ring_messages_out},
    {"batches_out", &ServerStats::batches_out},
    {"pre_writes_in", &ServerStats::pre_writes_in},
    {"commits_in", &ServerStats::commits_in},
    {"syncs_in", &ServerStats::syncs_in},
    {"syncs_sent", &ServerStats::syncs_sent},
    {"client_writes_in", &ServerStats::client_writes_in},
    {"client_reads_in", &ServerStats::client_reads_in},
    {"reads_immediate", &ServerStats::reads_immediate},
    {"reads_parked", &ServerStats::reads_parked},
    {"duplicates_dropped", &ServerStats::duplicates_dropped},
    {"dedup_acks", &ServerStats::dedup_acks},
    {"adoptions", &ServerStats::adoptions},
    {"epoch_nacks", &ServerStats::epoch_nacks},
    {"transition_parked", &ServerStats::transition_parked},
    {"migrations_in", &ServerStats::migrations_in},
    {"migrate_bytes_in", &ServerStats::migrate_bytes_in},
    {"dedup_merges", &ServerStats::dedup_merges},
    {"write_queue_max", &ServerStats::write_queue_max},
    {"urgent_queue_max", &ServerStats::urgent_queue_max},
    {"forward_queue_max", &ServerStats::forward_queue_max},
    {"frag_writes_in", &ServerStats::frag_writes_in},
    {"frag_fetches_in", &ServerStats::frag_fetches_in},
    {"code.commits", &ServerStats::coded_commits},
    {"frag_missing", &ServerStats::frag_missing},
    {"frag_corrupt", &ServerStats::frag_corrupt},
    {"frag_repairs", &ServerStats::frag_repairs},
    {"gc.runs", &ServerStats::gc_runs},
    {"gc.reclaimed_bytes", &ServerStats::gc_reclaimed_bytes},
    {"frag_late_binds", &ServerStats::frag_late_binds},
};
static_assert(sizeof(ServerStats) ==
                  std::size(kServerStatFields) * sizeof(std::uint64_t),
              "kServerStatFields must list every ServerStats counter");

class RingServer {
 public:
  RingServer(ProcessId self, std::size_t n_servers, ServerOptions opts = {});

  // ---------- inputs (driven by the fabric) ----------

  /// Dispatches any server-bound message (ring, fragment, migration or
  /// client kind) to the handler below; other kinds are ignored. The one
  /// delivery entry point every fabric's server host uses.
  void on_message(net::PayloadPtr msg, ServerContext& ctx);

  /// ⟨write, v⟩ for `object` from a client (lines 18–20).
  void on_client_write(ClientId client, RequestId req, Value value,
                       ServerContext& ctx, ObjectId object);

  /// ⟨read⟩ of `object` from a client (lines 76–84).
  void on_client_read(ClientId client, RequestId req, ServerContext& ctx,
                      ObjectId object);

  /// A ring message from the predecessor (PreWrite / WriteCommit /
  /// SyncState / PreWriteFrag / FragRepair), or a RingBatch of them —
  /// unpacked here, atomically, so every fabric gets batch delivery right
  /// by construction.
  void on_ring_message(net::PayloadPtr msg, ServerContext& ctx);

  // ---------- coded value plane (DESIGN.md §Coded values, D11) ----------

  /// One fragment of a coded write, delivered directly by the client. Every
  /// ring server stages its fragment; the copy flagged `initiate` also
  /// enqueues the write (the coded analogue of on_client_write).
  void on_frag_write(const FragWrite& m, ServerContext& ctx);

  /// A reader asking for this server's fragments of `tag` (the second
  /// round-trip of a coded read).
  void on_frag_fetch(const FragFetch& m, ServerContext& ctx);

  /// Perfect-failure-detector notification (lines 85–93 + adoption, D4).
  void on_peer_crash(ProcessId crashed, ServerContext& ctx);

  // ---------- epoch-versioned views (DESIGN.md §Reconfiguration, D8) ----
  //
  // A server starts with the boot view {epoch 0, ring 0, one-ring shard
  // map}: it owns every register and stamps epoch 0, which the wire encodes
  // as no epoch field at all — the paper's single-ring server, bit-for-bit.
  // A fabric that deploys a sharded topology installs the server's own view
  // (epoch, own ring, shard map) and from then on the server refuses client
  // ops on registers it does not own (EpochNack with its newest known epoch
  // as the refresh hint).
  //
  // A live reconfiguration hands every server the *next* view first
  // (begin_view_change): ops on registers moving away are NACKed with the
  // next epoch while their in-flight ring traffic drains; ops on registers
  // moving *in* (stamped by already-refreshed clients) are parked and
  // replayed when the fabric promotes the view (commit_view_change), after
  // it has copied the migrating registers over (on_migrate_state) together
  // with the source ring's retry-dedup windows (on_migrate_dedup).

  /// Installs the server's current view (construction / spawn time).
  void install_view(ServerView v) { view_ = std::move(v); }

  /// Freeze phase: the next view arrives; gating switches to the transition
  /// rules above.
  void begin_view_change(ServerView next);

  /// Flip phase: the next view becomes current; parked ops replay through
  /// the normal client-op handlers.
  void commit_view_change(ServerContext& ctx);

  /// Copy phase, destination side: installs one migrated register's highest
  /// committed (tag, value).
  void on_migrate_state(const MigrateState& m);

  /// Copy phase, destination side: merges the source ring's completed-write
  /// windows so retried writes dedup across the migration boundary.
  void on_migrate_dedup(const MigrateDedup& m);

  [[nodiscard]] Epoch epoch() const { return view_.epoch; }
  [[nodiscard]] const ServerView& view() const { return view_; }
  [[nodiscard]] bool view_changing() const { return incoming_.has_value(); }
  [[nodiscard]] std::size_t transition_backlog() const {
    return transition_parked_.size();
  }
  /// True once `object` was installed by a MigrateState during the current
  /// view change.
  [[nodiscard]] bool has_migrated(ObjectId object) const {
    return migrated_in_.contains(object);
  }

  /// True when no protocol work for `object` remains anywhere in this
  /// server: no pending pre-writes, no in-flight own writes, no adopted
  /// writes, no queued client writes, nothing for the register in the
  /// urgent or forward queues, no parked reads. The migration copy phase
  /// waits for this on every source-ring server — then the local (tag,
  /// value) of the maximum-tag server is the register's final state.
  [[nodiscard]] bool object_quiescent(ObjectId object) const;

  /// The MigrationCoordinator's view of this server during a view change:
  /// every materialised register the change moves, with its tag and drain
  /// state, plus the change's installs and dedup merges (both reset at
  /// begin/commit, so a flip gate never credits a previous
  /// reconfiguration; ServerStats::dedup_merges stays cumulative).
  [[nodiscard]] MigrationProbe migration_probe() const;

  /// Snapshot of the per-client completed-write windows (D5/D6) for a
  /// MigrateDedup message.
  [[nodiscard]] std::vector<MigrateDedup::Window> completed_windows() const;

  // ---------- ring egress (pulled by the fabric) ----------

  /// True if the server has ring traffic ready (urgent or schedulable).
  [[nodiscard]] bool has_ring_traffic() const;

  /// Pops the next ring transmission, applying the fairness policy
  /// (queue-handler task, lines 53–75). Returns nullopt when idle.
  std::optional<RingSend> next_ring_send();

  /// Pops up to ServerOptions::max_batch ring transmissions at once, each
  /// picked by the same fairness decision next_ring_send() makes, all bound
  /// for the current successor. With max_batch = 1 this is exactly one
  /// next_ring_send() — the unbatched protocol. Returns nullopt when idle.
  std::optional<RingBatchSend> next_ring_batch();

  // ---------- introspection (tests, benches) ----------
  //
  // Per-register accessors name their register. Reading a register that
  // was never written is valid and yields the initial state.

  [[nodiscard]] ProcessId id() const { return self_; }
  [[nodiscard]] const Tag& current_tag(ObjectId object) const;
  [[nodiscard]] const Value& current_value(ObjectId object) const;
  [[nodiscard]] const PendingSet& pending(ObjectId object) const;
  [[nodiscard]] const RingView& ring() const { return ring_; }
  [[nodiscard]] std::size_t parked_read_count(ObjectId object) const;
  [[nodiscard]] std::size_t object_count() const { return objects_.size(); }
  [[nodiscard]] std::size_t write_queue_depth() const {
    return write_queue_.size();
  }
  [[nodiscard]] std::size_t urgent_queue_depth() const {
    return urgent_.size();
  }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const FairScheduler& scheduler() const { return sched_; }
  /// Fragment bytes currently held (staged + committed) across all
  /// registers — the obs fragment-bytes gauge and the per-server storage
  /// share the coded examples print.
  [[nodiscard]] std::size_t fragment_bytes() const;
  /// Fragment bytes reclaimed by the GC watermark, cumulative.
  [[nodiscard]] std::size_t gc_reclaimed_bytes() const {
    return stats_.gc_reclaimed_bytes;
  }

  /// Attaches this server to a run's observability recorder (wire-silent:
  /// probes only record, they never alter protocol decisions). Detached by
  /// default — every probe call is then a single null-check branch.
  void attach_obs(obs::ServerProbe probe) { probe_ = probe; }

 private:
  struct LocalWrite {
    ObjectId object;
    ClientId client;
    RequestId req;
    Value value;       // empty for coded writes — the value never travels whole
    bool coded = false;
    std::uint8_t cn = 0;
    std::uint8_t ck = 0;
    std::uint64_t coded_value_size = 0;
  };
  struct ParkedRead {
    ClientId client;
    RequestId req;
    Tag threshold;  // reply once a commit with tag >= threshold is seen
  };
  struct OutstandingWrite {
    ClientId client;
    RequestId req;
    Value value;
    bool write_phase = false;  // own PreWrite completed the loop
    bool coded = false;        // re-issue PreWriteFrag, not PreWrite (D11)
    std::uint8_t cn = 0;
    std::uint8_t ck = 0;
    std::uint64_t coded_value_size = 0;
  };
  /// A client op held back during a view change (register moving onto this
  /// server); replayed in arrival order at commit_view_change.
  struct TransitionOp {
    bool is_read = false;
    ClientId client = 0;
    RequestId req = 0;
    Value value;
    ObjectId object = kDefaultObject;
  };

  /// Everything the paper keeps per register. Tags of different objects live
  /// in disjoint spaces: each object counts its own timestamps.
  struct ObjectState {
    ObjectId id = kDefaultObject;  // which register this record is
    Value value;          // v   (line 12)
    Tag tag;              // [ts, id]
    PendingSet pending;   // pending_write_set
    std::vector<ParkedRead> parked;

    // Origin bookkeeping: my in-flight writes, keyed by tag (D3).
    std::map<Tag, OutstandingWrite> outstanding;
    // Surrogate bookkeeping: writes I am completing for a dead origin (D4).
    std::map<Tag, std::pair<ClientId, RequestId>> adopted;

    // Duplicate suppression (D5): per-origin highest committed timestamp.
    std::vector<std::uint64_t> commit_watermark;
    // Tags currently sitting in the forward queue (cheap duplicate test).
    std::unordered_set<Tag> queued_tags;
    // Defensive: commits that arrived before their pre-write (non-FIFO).
    std::unordered_set<Tag> early_commits;

    // Coded value plane (D11): the fragment store is lazy — a register that
    // only ever sees replicated writes never allocates one. `coded` says
    // whether the *current committed* (tag, value) is a coded state: then
    // `value` is empty and readers are answered with CodedReadAck instead.
    std::unique_ptr<code::FragmentStore> frags;
    bool coded = false;
    std::uint8_t cn = 0;
    std::uint8_t ck = 0;
    std::uint64_t coded_value_size = 0;

    ObjectState(ObjectId object, std::size_t n_servers, const Tag& initial)
        : id(object), tag(initial), commit_watermark(n_servers, 0) {}

    code::FragmentStore& store() {
      if (!frags) frags = std::make_unique<code::FragmentStore>();
      return *frags;
    }
  };

  /// D6: per-client completed-write tracking that tolerates out-of-order
  /// completion (pipelined sessions). Write request ids are gapless per
  /// client (reads draw from a disjoint id space — client.h), so
  /// `watermark` covers the exact completed prefix and `above` holds
  /// out-of-order completions past a still-outstanding write; every gap
  /// write eventually completes (retry + ring liveness), draining `above`.
  /// Tracking is exact — a request is reported completed iff its commit
  /// was seen — which is what makes the dedup ack safe.
  struct CompletedWindow {
    RequestId watermark = 0;
    std::set<RequestId> above;
  };

  /// Ownership gate for a client op (D8). Returns true when the op was
  /// consumed here (NACKed with an epoch hint, or parked until the flip);
  /// false means the server owns the register and must serve normally.
  bool gate_client_op(bool is_read, ClientId client, RequestId req,
                      Value* value, ObjectId object, ServerContext& ctx);

  void handle_pre_write(const net::PayloadPtr& msg, const PreWrite& m,
                        ServerContext& ctx);
  void handle_commit(const net::PayloadPtr& msg, const WriteCommit& m,
                     ServerContext& ctx);
  void handle_sync(const SyncState& m);
  /// Coded pre-write: the metadata-only ring circulation of a FragWrite
  /// fan-out (D11). Mirrors handle_pre_write with an empty value and coding
  /// geometry riding the pending entry.
  void handle_pre_write_frag(const net::PayloadPtr& msg, const PreWriteFrag& m,
                             ServerContext& ctx);
  /// Crash repair for coded registers: collects k fragments around the
  /// ring, regenerates the crashed server's index at the origin (absorber).
  void handle_frag_repair(const net::PayloadPtr& msg, const FragRepair& m);

  /// Lines 21–28: assign a tag and start the pre-write phase. Returns the
  /// transmission (caller is next_ring_send).
  RingSend initiate_write(LocalWrite w);

  /// Solo fast path: the ring is just this server; writes apply immediately.
  void solo_write(const LocalWrite& w, ServerContext& ctx);

  /// Fetches (creating on first touch) the state of one register.
  ObjectState& state_of(ObjectId id);
  /// Read-only lookup; nullptr when the register was never touched.
  [[nodiscard]] const ObjectState* find_state(ObjectId id) const;

  /// Applies (tag, value) to the register if newer (lines 33–35/43–45).
  /// A replicated apply that supersedes a coded state clears the coded
  /// flag — one register may alternate modes under a size-threshold policy.
  static void apply(ObjectState& obj, const Tag& t, const Value& v);

  /// Coded counterpart of apply(): installs `t` as a coded committed state
  /// (empty value, geometry recorded), promotes the writer's staged
  /// fragment under `t`, and runs the GC watermark (D11).
  void apply_coded(ObjectState& obj, const Tag& t, ClientId client,
                   RequestId req, std::uint8_t n, std::uint8_t k,
                   std::uint64_t value_size);

  /// Replies to a read of a coded register: CodedReadAck carrying whatever
  /// fragments this server holds at the committed tag.
  void send_coded_read_ack(const ObjectState& obj, ClientId client,
                           RequestId req, ServerContext& ctx);

  /// Records completion of a write for duplicate suppression (watermark) and
  /// client-retry deduplication.
  void note_completed(ObjectState& obj, const Tag& t, ClientId client,
                      RequestId req);

  /// True if this request id completed for this client (D5/D6).
  [[nodiscard]] bool request_completed(ClientId client, RequestId req) const;

  /// Replies to every parked read of `obj` whose threshold is <= t
  /// (line 81 trigger).
  void unpark_up_to(ObjectState& obj, const Tag& t, ServerContext& ctx);

  /// True if a commit for this tag was already processed here.
  [[nodiscard]] static bool already_committed(const ObjectState& obj,
                                              const Tag& t);

  /// When the view collapses to {self}, every pending write resolves locally.
  void resolve_everything_solo(ServerContext& ctx);

  void push_urgent(net::PayloadPtr msg);

  /// Forwards a crash-recovery duplicate (a re-sent pre-write or commit)
  /// and remembers it until the next crash notice, which re-sends it if
  /// the notice turns out to be for the successor it went to.
  void forward_duplicate(ProcessId origin, const net::PayloadPtr& msg);

  [[nodiscard]] bool solo() const { return ring_.alive_count() == 1; }

  ProcessId self_;
  ServerOptions opts_;
  RingView ring_;
  ProcessId successor_;

  // Per-register protocol state. std::map: deterministic iteration order for
  // crash re-sends (object 0 first), pointer stability across insertions.
  std::map<ObjectId, ObjectState> objects_;

  FairScheduler sched_;    // forward_queue + nb_msg — per SERVER, all objects
  std::deque<LocalWrite> write_queue_;

  // Paper-direct sends (write-phase starts, crash repair) jump the fairness
  // queue; they correspond to the pseudo-code's immediate `send` statements.
  std::deque<net::PayloadPtr> urgent_;

  // Duplicates forwarded since the last crash notice. Duplicates exist only
  // on the crash path, so a crash-free run never touches this.
  std::vector<net::PayloadPtr> forwarded_duplicates_;

  // Client-retry dedup (D5/D6): completed write requests per client.
  std::unordered_map<ClientId, CompletedWindow> completed_req_;

  // Epoch-versioned view (D8); the boot view until a fabric installs one.
  ServerView view_;
  std::optional<ServerView> incoming_;     // next view during a transition
  std::deque<TransitionOp> transition_parked_;
  std::unordered_set<ObjectId> migrated_in_;  // installed during this change
  std::uint64_t transition_dedup_merges_ = 0;  // merges during this change

  ServerStats stats_;
  obs::ServerProbe probe_;      // detached (all-null) unless a fabric attaches
  std::uint64_t batch_seq_ = 0;  // id of the batch currently being assembled
};

}  // namespace hts::core
