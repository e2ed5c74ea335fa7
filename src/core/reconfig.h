// Epoch-versioned cluster views and live reconfiguration (DESIGN.md
// §Reconfiguration, D8).
//
// A deployment is no longer a fixed Topology but a ClusterView{epoch,
// topology}: epoch 0 is the boot shape, and every ring add/remove produces
// the next epoch. The ShardMap is a pure function of the ring count, so a
// view is all any participant needs to know who owns what — no per-object
// directory, no coordination beyond learning the latest view.
//
// Reconfiguration migrates only the registers whose ShardMap assignment
// changes (the consistent hash bounds that to ~1/(R+1) of the namespace on
// a grow, and moves them only onto the new ring). Migration runs per
// register as freeze → copy → flip:
//
//   freeze  every server is handed the next view (begin_view_change): a
//           server that loses an object under the next view NACKs new
//           client ops on it with an EpochNack carrying the next epoch,
//           while its in-flight ring traffic for the object drains; a
//           server that gains an object parks client ops on it until the
//           flip (they arrive from clients that already refreshed).
//   copy    once the source ring is quiescent for the register, the highest
//           committed (tag, value) is handed to every destination server in
//           an epoch-stamped MigrateState message, and the source ring's
//           completed-request windows travel in a MigrateDedup so a retried
//           write can never re-apply across the boundary.
//   flip    every server promotes the next view to current
//           (commit_view_change) and replays its parked ops; clients learn
//           the new epoch from the registry on the next EpochNack or retry.
//
// Everything here is fabric-agnostic: the view types, the thread-safe
// registry clients refresh from, the planning helpers (which objects move,
// what fraction to expect) and the MigrationCoordinator that makes every
// freeze/copy/flip decision. The coordinator is a step-driven state
// machine: it emits plain-value commands (begin the view change on server
// g, publish, probe, emit MigrateState / MigrateDedup, commit, retire,
// wait) and is fed back probe replies and "that server is down". A fabric
// only executes commands — SimCluster synchronously inside its scheduled
// poll events, ThreadedCluster as control messages run on each server's
// own thread — so both fabrics make the same decisions in the same order.
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/topology.h"
#include "net/payload.h"

namespace hts::core {

/// One epoch of the deployment: the shape every participant must agree on.
struct ClusterView {
  Epoch epoch = 0;
  Topology topology;

  friend bool operator==(const ClusterView& a, const ClusterView& b) {
    return a.epoch == b.epoch && a.topology == b.topology;
  }
};

/// What one server knows about the deployment: which epoch it serves in,
/// which ring it belongs to, and the epoch's shard map for ownership
/// checks. Every server holds one from construction (RingServer boots with
/// {epoch 0, ring 0, one-ring map}, which owns every register).
struct ServerView {
  Epoch epoch = 0;
  RingId ring = kDefaultRing;
  std::shared_ptr<const ShardMap> map;

  [[nodiscard]] bool owns(ObjectId object) const {
    return map->ring_of(object) == ring;
  }
};

/// The authoritative latest view, shared by a fabric's coordinator and its
/// client sessions (their view provider reads it on an EpochNack or retry).
/// Thread-safe: the threaded fabric publishes from the coordinator thread
/// while sessions read from their transport threads. A real deployment
/// would back this with a configuration service; the registry is its
/// in-process stand-in.
class ViewRegistry {
 public:
  explicit ViewRegistry(ClusterView initial) : view_(std::move(initial)) {}

  /// Copies the whole view. Only the refresh paths call this (an
  /// EpochNack, a timeout retry) — failure/reconfig events, never the
  /// per-op fast path — so the copy is cold by construction.
  [[nodiscard]] ClusterView get() const HTS_EXCLUDES(mu_) {
    const sync::MutexLock lock(mu_);
    return view_;
  }

  /// Installs the next view. Epochs only ever advance, one at a time.
  void publish(ClusterView v) HTS_EXCLUDES(mu_) {
    const sync::MutexLock lock(mu_);
    assert(v.epoch == view_.epoch + 1);
    view_ = std::move(v);
  }

 private:
  mutable sync::Mutex mu_;
  ClusterView view_ HTS_GUARDED_BY(mu_);
};

// ------------------------------------------------------- migration planning

/// True iff `object` is served by different rings under the two maps —
/// i.e. a reconfiguration between them must migrate the register.
[[nodiscard]] bool object_moves(ObjectId object, const ShardMap& from,
                                const ShardMap& to);

/// The subset of `objects` that must migrate between the two maps. This is
/// exactly the ShardMap churn — tested against a direct per-object recompute
/// and against the ~1/(R+1) consistent-hash bound.
[[nodiscard]] std::vector<ObjectId> moved_objects(
    const std::vector<ObjectId>& objects, const ShardMap& from,
    const ShardMap& to);

/// Expected fraction of the namespace a grow from `old_rings` to `new_rings`
/// reassigns (the consistent-hash bound): (new - old) / new for a grow,
/// symmetric for a shrink.
[[nodiscard]] double expected_move_fraction(std::size_t old_rings,
                                            std::size_t new_rings);

/// Bytes and object counts one reconfiguration moved — the fabrics fill
/// this while executing coordinator commands, and fig8 reports it against
/// the expected bound.
struct MigrationStats {
  std::size_t reconfigs = 0;       ///< completed view changes
  std::size_t objects_moved = 0;   ///< registers copied across rings
  std::uint64_t bytes_moved = 0;   ///< MigrateState wire bytes (all copies)
  std::uint64_t dedup_bytes = 0;   ///< MigrateDedup wire bytes
};

// ------------------------------------------------------ migration coordinator

/// One reconfiguration: the view it moves to, the two shard maps, and who
/// plays which part. Sources may lose registers, dests may gain them, and
/// retiring servers are stopped after the flip. Every server of the wider
/// topology changes view.
struct MigrationPlan {
  ClusterView next;
  Topology from;  ///< the current topology (next.topology is the target)
  std::shared_ptr<const ShardMap> old_map, new_map;
  std::vector<ProcessId> sources, dests, retiring;
  bool coded = false;  ///< a coded ValuePolicy is active: cannot migrate

  /// Grows `from` by one ring of `ring_size` (>= 1) servers: every
  /// existing server is a source, the new ring's servers are the dests.
  static MigrationPlan grow(const ClusterView& current,
                            std::shared_ptr<const ShardMap> current_map,
                            std::size_t ring_size, bool coded);
  /// Retires the last of two or more rings: its servers are sources (and
  /// retire at the flip), every other server is a dest.
  static MigrationPlan shrink(const ClusterView& current,
                              std::shared_ptr<const ShardMap> current_map,
                              bool coded);

  /// The larger of the two topologies: it addresses every participant.
  [[nodiscard]] const Topology& wide() const;
  /// Ring of a participating server (global id), old or new.
  [[nodiscard]] RingId ring_of(ProcessId server) const;
};

/// What a probed server reports, built on the server's own thread by
/// RingServer::migration_probe.
struct MigrationProbe {
  /// (object, local tag) of every materialised register that moves from
  /// the server's current view to its next one, ascending by object.
  std::vector<std::pair<ObjectId, Tag>> moving;
  bool quiescent = true;          ///< no protocol work left for `moving`
  std::vector<ObjectId> migrated; ///< installed by MigrateState, ascending
  std::uint64_t dedup_merges = 0; ///< MigrateDedup merged in this change
};

/// A plain-value coordinator command. Server-side kinds (begin, probe,
/// emit, commit) run on `server` through execute_migration_command; the
/// rest are the fabric's own (publish the next view to the registry,
/// stop a retiring server, wait before the next poll, finish).
struct MigrationCommand {
  enum class Kind : std::uint8_t {
    kBeginViewChange,  ///< server starts the change to `view`
    kPublish,          ///< the registry publishes plan().next
    kProbe,            ///< server answers with a MigrationProbe
    kEmitState,        ///< server sends MigrateState(object) to `dests`
    kEmitDedup,        ///< server sends MigrateDedup to `dests`
    kCommit,           ///< server promotes the next view, replays parked ops
    kRetire,           ///< the fabric stops `server` (cleanly)
    kWait,             ///< poll again after `delay_s`
    kDone,             ///< the flip is complete
  };
  Kind kind = Kind::kDone;
  ProcessId server = kNoProcess;
  ServerView view;               ///< kBeginViewChange
  ObjectId object = 0;           ///< kEmitState
  Epoch epoch = 0;               ///< kEmitState / kEmitDedup
  std::vector<ProcessId> dests;  ///< kEmitState / kEmitDedup
  double delay_s = 0;            ///< kWait
};

/// Drives one reconfiguration as freeze → copy → flip, one command at a
/// time. Protocol: call next(), execute the command, and — before calling
/// next() again — report on_down() if its server was down (the command did
/// not run) or on_probe() with a kProbe's reply. A command with no report
/// ran. Every poll round decides in a fixed order: drain check over the
/// sources, copies (dests in order, first max-tag source wins), dedup
/// windows (one source per ring), then the install check over the dests.
///
/// Crash tolerance: a source that dies mid-emit is replaced by the next
/// max-tag holder, a dead dedup shipper by a ring peer, and a register
/// whose every holder died is skipped. With no crash this is exactly one
/// copy per register and one dedup shipment per source ring.
class MigrationCoordinator {
 public:
  /// Re-poll interval while sources drain or copies land.
  static constexpr double kPollInterval = 2e-4;

  /// Throws std::logic_error for a plan it cannot run (a coded one).
  explicit MigrationCoordinator(MigrationPlan plan);

  [[nodiscard]] MigrationCommand next();
  void on_probe(MigrationProbe reply);
  void on_down();

  [[nodiscard]] const MigrationPlan& plan() const { return plan_; }
  /// Registers copied so far (MigrationStats::objects_moved).
  [[nodiscard]] std::size_t copied() const { return copied_.size(); }

 private:
  enum class Phase : std::uint8_t {
    kFreeze, kPublish, kProbeSources, kCopy, kDedup, kProbeDests,
    kCommit, kRetire, kDone
  };

  /// The state machine proper; next() wraps it with the report handling.
  MigrationCommand advance();
  /// Resets the per-round state and waits `delay_s` before probing again.
  MigrationCommand start_round(double delay_s);
  /// Max-tag alive source for `object` from this round's probes (first
  /// wins on ties; a source without the register counts as the initial
  /// tag); nullopt when no alive source holds it.
  [[nodiscard]] std::optional<ProcessId> best_source(ObjectId object) const;
  /// True when a dest's probe shows every install and dedup merge.
  [[nodiscard]] bool installed(ProcessId dest, const MigrationProbe& r) const;
  [[nodiscard]] bool alive(ProcessId g) const { return !dead_.contains(g); }

  MigrationPlan plan_;
  Phase phase_ = Phase::kFreeze;
  std::size_t cursor_ = 0;
  MigrationCommand last_;          ///< the command awaiting its report
  bool last_down_ = false;
  bool round_ready_ = true;        ///< no probe failed this round's checks
  std::set<ProcessId> dead_;
  std::vector<std::pair<ProcessId, MigrationProbe>> source_probes_;
  std::vector<ObjectId> moving_;   ///< this round's migrating registers
  std::set<ObjectId> copied_;
  std::set<RingId> dedup_rings_;   ///< source rings whose windows shipped
};

class RingServer;
class ServerContext;

/// Runs a server-side command (begin, probe, emit, commit) on `server`,
/// from the server's own thread. `send` ships a MigrateState/MigrateDedup
/// to a peer by global id. Returns the reply of a kProbe.
std::optional<MigrationProbe> execute_migration_command(
    const MigrationCommand& cmd, RingServer& server, ServerContext& ctx,
    const std::function<void(ProcessId, const net::PayloadPtr&)>& send);

}  // namespace hts::core
