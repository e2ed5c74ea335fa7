#include "core/reconfig.h"

#include <algorithm>
#include <stdexcept>

#include "core/messages.h"
#include "core/server.h"

namespace hts::core {

bool object_moves(ObjectId object, const ShardMap& from, const ShardMap& to) {
  return from.ring_of(object) != to.ring_of(object);
}

std::vector<ObjectId> moved_objects(const std::vector<ObjectId>& objects,
                                    const ShardMap& from, const ShardMap& to) {
  std::vector<ObjectId> moved;
  for (const ObjectId obj : objects) {
    if (object_moves(obj, from, to)) moved.push_back(obj);
  }
  return moved;
}

double expected_move_fraction(std::size_t old_rings, std::size_t new_rings) {
  const std::size_t lo = old_rings < new_rings ? old_rings : new_rings;
  const std::size_t hi = old_rings < new_rings ? new_rings : old_rings;
  if (hi == 0) return 0.0;
  return static_cast<double>(hi - lo) / static_cast<double>(hi);
}

// ------------------------------------------------------------ migration plan

namespace {
MigrationPlan plan_to(const ClusterView& current,
                      std::shared_ptr<const ShardMap> current_map,
                      Topology next, bool coded) {
  MigrationPlan p;
  p.next = ClusterView{current.epoch + 1, std::move(next)};
  p.from = current.topology;
  p.old_map = std::move(current_map);
  p.new_map = std::make_shared<const ShardMap>(p.next.topology.n_rings());
  p.coded = coded;
  return p;
}
}  // namespace

MigrationPlan MigrationPlan::grow(const ClusterView& current,
                                  std::shared_ptr<const ShardMap> current_map,
                                  std::size_t ring_size, bool coded) {
  if (ring_size < 1) {
    throw std::invalid_argument("add_ring: a ring needs at least one server");
  }
  MigrationPlan p = plan_to(current, std::move(current_map),
                            current.topology.with_ring(ring_size), coded);
  for (ProcessId g = 0; g < p.next.topology.total_servers(); ++g) {
    (g < p.from.total_servers() ? p.sources : p.dests).push_back(g);
  }
  return p;
}

MigrationPlan MigrationPlan::shrink(const ClusterView& current,
                                    std::shared_ptr<const ShardMap> current_map,
                                    bool coded) {
  if (current.topology.n_rings() < 2) {
    throw std::logic_error("remove_last_ring: cannot retire the only ring");
  }
  MigrationPlan p = plan_to(current, std::move(current_map),
                            current.topology.without_last_ring(), coded);
  for (ProcessId g = 0; g < p.from.total_servers(); ++g) {
    (g < p.next.topology.total_servers() ? p.dests : p.sources).push_back(g);
  }
  p.retiring = p.sources;
  return p;
}

const Topology& MigrationPlan::wide() const {
  return from.total_servers() > next.topology.total_servers() ? from
                                                               : next.topology;
}

RingId MigrationPlan::ring_of(ProcessId server) const {
  return wide().ring_of_server(server);
}

// ----------------------------------------------------- migration coordinator

namespace {
using Kind = MigrationCommand::Kind;

MigrationCommand command(Kind kind, ProcessId server = kNoProcess) {
  MigrationCommand c;
  c.kind = kind;
  c.server = server;
  return c;
}
}  // namespace

MigrationCoordinator::MigrationCoordinator(MigrationPlan plan)
    : plan_(std::move(plan)) {
  if (plan_.coded) {
    // MigrateState carries one replicated (tag, value), and a coded
    // register's value is empty at every server: a copy would install an
    // empty register at the destination.
    throw std::logic_error(
        "reconfiguration under an active ValuePolicy is not supported");
  }
}

void MigrationCoordinator::on_down() {
  dead_.insert(last_.server);
  last_down_ = true;
}

void MigrationCoordinator::on_probe(MigrationProbe reply) {
  if (phase_ == Phase::kProbeSources) {
    source_probes_.emplace_back(last_.server, std::move(reply));
  } else if (!installed(last_.server, reply)) {
    round_ready_ = false;
  }
}

MigrationCommand MigrationCoordinator::start_round(double delay_s) {
  phase_ = Phase::kProbeSources;
  cursor_ = 0;
  round_ready_ = true;
  source_probes_.clear();
  MigrationCommand c = command(Kind::kWait);
  c.delay_s = delay_s;
  return c;
}

MigrationCommand MigrationCoordinator::next() {
  if (!last_down_) {
    // The previous command ran: record what it achieved.
    if (last_.kind == Kind::kEmitState) copied_.insert(last_.object);
    if (last_.kind == Kind::kEmitDedup) {
      dedup_rings_.insert(plan_.ring_of(last_.server));
    }
  }
  last_down_ = false;
  last_ = advance();
  return last_;
}

MigrationCommand MigrationCoordinator::advance() {
  for (;;) {
    switch (phase_) {
      case Phase::kFreeze:
        // Every member learns the next view: registers moving away stop
        // admitting client ops while their ring traffic drains.
        if (cursor_ < plan_.wide().total_servers()) {
          const auto g = static_cast<ProcessId>(cursor_++);
          MigrationCommand c = command(Kind::kBeginViewChange, g);
          c.view = ServerView{plan_.next.epoch, plan_.ring_of(g), plan_.new_map};
          return c;
        }
        phase_ = Phase::kPublish;
        return command(Kind::kPublish);

      case Phase::kPublish:
        // NACKed clients now refresh straight to the next view and
        // re-route; the dests park their ops until the flip.
        return start_round(0.0);

      case Phase::kProbeSources: {
        while (cursor_ < plan_.sources.size()) {
          const ProcessId g = plan_.sources[cursor_++];
          if (alive(g)) return command(Kind::kProbe, g);
        }
        // Drain: no admitted op on a migrating register may still be in
        // flight anywhere on an alive source.
        std::set<ObjectId> moving;
        for (const auto& [g, probe] : source_probes_) {
          if (!probe.quiescent) return start_round(kPollInterval);
          for (const auto& [obj, tag] : probe.moving) moving.insert(obj);
        }
        moving_.assign(moving.begin(), moving.end());
        phase_ = Phase::kCopy;
        cursor_ = 0;
        break;
      }

      case Phase::kCopy:
        // Each register's max-tag (tag, value) goes to every dest of its
        // new ring. The cursor stays put until the emit ran, so a source
        // that died mid-emit is replaced by the next max-tag holder.
        while (cursor_ < moving_.size()) {
          const ObjectId obj = moving_[cursor_];
          const std::optional<ProcessId> src =
              copied_.contains(obj) ? std::nullopt : best_source(obj);
          if (!src) {
            ++cursor_;  // copied, or every holder died with the register
            continue;
          }
          MigrationCommand c = command(Kind::kEmitState, *src);
          c.object = obj;
          c.epoch = plan_.next.epoch;
          for (const ProcessId d : plan_.dests) {
            if (alive(d) && plan_.ring_of(d) == plan_.new_map->ring_of(obj)) {
              c.dests.push_back(d);
            }
          }
          return c;
        }
        phase_ = Phase::kDedup;
        cursor_ = 0;
        break;

      case Phase::kDedup:
        // One alive server per source ring ships its completed-write
        // windows (identical ring-wide after the drain); a dead shipper is
        // replaced by a ring peer.
        while (cursor_ < plan_.sources.size()) {
          const ProcessId g = plan_.sources[cursor_];
          if (!alive(g) || dedup_rings_.contains(plan_.ring_of(g))) {
            ++cursor_;
            continue;
          }
          MigrationCommand c = command(Kind::kEmitDedup, g);
          c.epoch = plan_.next.epoch;
          for (const ProcessId d : plan_.dests) {
            if (alive(d)) c.dests.push_back(d);
          }
          return c;
        }
        phase_ = Phase::kProbeDests;
        cursor_ = 0;
        break;

      case Phase::kProbeDests:
        // Install check: flip once every alive dest holds every register
        // its ring gains and the windows of every shipped ring.
        if (!round_ready_) return start_round(kPollInterval);
        while (cursor_ < plan_.dests.size()) {
          const ProcessId d = plan_.dests[cursor_++];
          if (alive(d)) return command(Kind::kProbe, d);
        }
        phase_ = Phase::kCommit;
        cursor_ = 0;
        break;

      case Phase::kCommit:
        // Promote first, then retire: parked ops replay against migrated
        // state.
        while (cursor_ < plan_.wide().total_servers()) {
          const auto g = static_cast<ProcessId>(cursor_++);
          if (alive(g)) return command(Kind::kCommit, g);
        }
        phase_ = Phase::kRetire;
        cursor_ = 0;
        break;

      case Phase::kRetire:
        while (cursor_ < plan_.retiring.size()) {
          const ProcessId g = plan_.retiring[cursor_++];
          if (alive(g)) return command(Kind::kRetire, g);
        }
        phase_ = Phase::kDone;
        break;

      case Phase::kDone:
        return command(Kind::kDone);
    }
  }
}

std::optional<ProcessId> MigrationCoordinator::best_source(
    ObjectId object) const {
  std::optional<ProcessId> best;
  Tag best_tag;
  bool held = false;
  for (const auto& [g, probe] : source_probes_) {
    if (!alive(g)) continue;
    // A source that never materialised the register holds the initial tag.
    Tag tag = kInitialTag;
    const auto it = std::lower_bound(
        probe.moving.begin(), probe.moving.end(), object,
        [](const std::pair<ObjectId, Tag>& e, ObjectId o) {
          return e.first < o;
        });
    if (it != probe.moving.end() && it->first == object) {
      tag = it->second;
      held = true;
    }
    if (!best || tag > best_tag) {
      best = g;
      best_tag = tag;
    }
  }
  if (!held) return std::nullopt;  // every holder died with the register
  return best;
}

bool MigrationCoordinator::installed(ProcessId dest,
                                     const MigrationProbe& r) const {
  if (r.dedup_merges < dedup_rings_.size()) return false;
  const RingId ring = plan_.ring_of(dest);
  return std::all_of(moving_.begin(), moving_.end(), [&](ObjectId obj) {
    return plan_.new_map->ring_of(obj) != ring ||
           std::binary_search(r.migrated.begin(), r.migrated.end(), obj);
  });
}

std::optional<MigrationProbe> execute_migration_command(
    const MigrationCommand& cmd, RingServer& server, ServerContext& ctx,
    const std::function<void(ProcessId, const net::PayloadPtr&)>& send) {
  switch (cmd.kind) {
    case Kind::kBeginViewChange:
      // A ring spawned by a grow began its change before it was reachable.
      if (!server.view_changing()) server.begin_view_change(cmd.view);
      break;
    case Kind::kProbe:
      return server.migration_probe();
    case Kind::kEmitState: {
      const net::PayloadPtr msg = net::make_payload<MigrateState>(
          server.current_tag(cmd.object), server.current_value(cmd.object),
          cmd.object, cmd.epoch);
      for (const ProcessId d : cmd.dests) send(d, msg);
      break;
    }
    case Kind::kEmitDedup: {
      const net::PayloadPtr msg =
          net::make_payload<MigrateDedup>(server.completed_windows(), cmd.epoch);
      for (const ProcessId d : cmd.dests) send(d, msg);
      break;
    }
    case Kind::kCommit:
      if (server.view_changing()) server.commit_view_change(ctx);
      break;
    default:
      break;
  }
  return std::nullopt;
}

}  // namespace hts::core
