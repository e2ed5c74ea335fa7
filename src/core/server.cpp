#include "core/server.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "code/crc32.h"
#include "code/mds.h"
#include "common/logging.h"

namespace hts::core {

namespace {

/// What a ring message is about: its register and tag, plus the op's
/// (client, req) for the write kinds. SyncState and FragRepair carry no op
/// identity (0, 0).
struct RingRef {
  ObjectId object = kDefaultObject;
  Tag tag;
  ClientId client = 0;
  RequestId req = 0;
};

RingRef ring_ref(const net::Payload& msg) {
  switch (msg.kind()) {
    case kPreWrite: {
      const auto& m = static_cast<const PreWrite&>(msg);
      return {m.object, m.tag, m.client, m.req};
    }
    case kPreWriteFrag: {
      const auto& m = static_cast<const PreWriteFrag&>(msg);
      return {m.object, m.tag, m.client, m.req};
    }
    case kWriteCommit: {
      const auto& m = static_cast<const WriteCommit&>(msg);
      return {m.object, m.tag, m.client, m.req};
    }
    case kSyncState: {
      const auto& m = static_cast<const SyncState&>(msg);
      return {m.object, m.tag};
    }
    case kFragRepair: {
      const auto& m = static_cast<const FragRepair&>(msg);
      return {m.object, m.tag};
    }
    default:
      return {};
  }
}

/// The body a pre-write (PreWrite or PreWriteFrag) carries.
WriteBody body_of(const net::Payload& msg) {
  if (msg.kind() == kPreWriteFrag) {
    const auto& m = static_cast<const PreWriteFrag&>(msg);
    return CodedShape{m.n, m.k, m.value_size};
  }
  return static_cast<const PreWrite&>(msg).value;
}

}  // namespace

RingServer::RingServer(ProcessId self, std::size_t n_servers,
                       ServerOptions opts)
    : self_(self),
      opts_(opts),
      ring_(n_servers),
      successor_(ring_.successor(self)),
      sched_(n_servers, self),
      view_{0, kDefaultRing, std::make_shared<const ShardMap>(1)} {
  assert(self < n_servers);
  // The default register always exists: crash repair syncs it even when it
  // was never written, exactly as the single-register protocol did.
  (void)state_of(kDefaultObject);
}

RingServer::ObjectState& RingServer::state_of(ObjectId id) {
  if (ObjectState* obj = index_.find(id)) return *obj;
  ObjectState& obj =
      objects_.emplace(id, ObjectState(id, ring_.initial_size(), kInitialTag))
          .first->second;
  index_.insert(id, &obj);
  return obj;
}

const RingServer::ObjectState* RingServer::find_state(ObjectId id) const {
  return index_.find(id);
}

void RingServer::on_message(net::PayloadPtr msg, ServerContext& ctx) {
  switch (msg->kind()) {
    case kRingBatch:  // unpacked atomically by on_ring_message
    case kPreWrite:
    case kWriteCommit:
    case kSyncState:
    case kPreWriteFrag:
    case kFragRepair:
      on_ring_message(std::move(msg), ctx);
      break;
    case kFragWrite:
      on_frag_write(static_cast<const FragWrite&>(*msg), ctx);
      break;
    case kFragFetch:
      on_frag_fetch(static_cast<const FragFetch&>(*msg), ctx);
      break;
    case kMigrateState:
      on_migrate_state(static_cast<const MigrateState&>(*msg));
      break;
    case kMigrateDedup:
      on_migrate_dedup(static_cast<const MigrateDedup&>(*msg));
      break;
    case kClientWrite: {
      const auto& m = static_cast<const ClientWrite&>(*msg);
      on_client_write(m.client, m.req, m.value, ctx, m.object);
      break;
    }
    case kClientRead: {
      const auto& m = static_cast<const ClientRead&>(*msg);
      on_client_read(m.client, m.req, ctx, m.object);
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------- clients

bool RingServer::gate_client_op(bool is_read, ClientId client, RequestId req,
                                WriteBody* body, ObjectId object,
                                ServerContext& ctx) {
  const ServerView& deciding = deciding_view();
  if (!deciding.owns(object)) {
    // Misrouted (stale client view), moving away (the freeze half of
    // freeze→copy→flip), or never ours: refuse with our newest epoch as the
    // refresh hint.
    ++stats_.epoch_nacks;
    probe_.event(obs::EventKind::kEpochNackSent, client, req, deciding.epoch);
    ctx.send_client(client,
                    net::make_payload<EpochNack>(req, object, deciding.epoch));
    return true;
  }
  if (!incoming_ || view_.owns(object)) return false;  // ours now and next
  // The register is moving onto this server: the op comes from a client
  // that already refreshed to the next view. Park it until the flip —
  // serving before the migrated state lands would read/write a stale
  // (initial) register. Duplicate retries of one write collapse to one
  // parked copy, so the replay cannot double-apply.
  if (!is_read) {
    for (const TransitionOp& t : transition_parked_) {
      if (!t.is_read && t.client == client && t.req == req) return true;
    }
  }
  ++stats_.transition_parked;
  probe_.event(obs::EventKind::kTransitionPark, client, req, deciding.epoch);
  transition_parked_.push_back(TransitionOp{
      is_read, client, req, body ? std::move(*body) : WriteBody{}, object});
  return true;
}

void RingServer::on_client_write(ClientId client, RequestId req, Value value,
                                 ServerContext& ctx, ObjectId object) {
  ++stats_.client_writes_in;
  submit_write(client, req, std::move(value), object, ctx);
}

void RingServer::submit_write(ClientId client, RequestId req, WriteBody body,
                              ObjectId object, ServerContext& ctx) {
  if (opts_.dedup_retries && view_.owns(object) &&
      request_completed(client, req)) {
    // This request already completed somewhere (we learned via the commit
    // circulating); re-applying would risk the duplicate-write atomicity
    // violation (D5). Just ack — including mid-migration while the register
    // is frozen (this server still owns it under the current view, so the
    // (ring, epoch) stamp is truthful). Once the register has *left* this
    // server — !owns under the current view — the gate below NACKs instead:
    // the new owner dedup-acks from the merged MigrateDedup windows, so the
    // history never records the old ring serving in the new epoch.
    dedup_ack(client, req, object, ctx);
    return;
  }
  if (gate_client_op(false, client, req, &body, object, ctx)) return;
  LocalWrite w{object, client, req, std::move(body)};
  if (solo()) {
    solo_write(w, ctx);
    return;
  }
  write_queue_.push_back(std::move(w));  // line 19
  stats_.write_queue_max =
      std::max<std::uint64_t>(stats_.write_queue_max, write_queue_.size());
  probe_.event(obs::EventKind::kWriteEnqueue, client, req,
               write_queue_.size());
}

void RingServer::dedup_ack(ClientId client, RequestId req, ObjectId object,
                           ServerContext& ctx) {
  ++stats_.dedup_acks;
  probe_.event(obs::EventKind::kDedupAck, client, req);
  ctx.send_client(client,
                  net::make_payload<ClientWriteAck>(req, object, view_.epoch));
}

void RingServer::on_client_read(ClientId client, RequestId req,
                                ServerContext& ctx, ObjectId object) {
  ++stats_.client_reads_in;
  if (gate_client_op(true, client, req, nullptr, object, ctx)) return;
  const ObjectState* obj = find_state(object);
  if (obj == nullptr || !obj->has_pending()) {  // line 77
    // A never-touched register is a register in its initial state — no
    // pending pre-writes can exist for it, so the read is immediate.
    ++stats_.reads_immediate;
    probe_.event(obs::EventKind::kReadImmediate, client, req);
    if (obj != nullptr && obj->coded()) {
      send_coded_read_ack(*obj, client, req, ctx);
      return;
    }
    ctx.send_client(client, net::make_payload<ClientReadAck>(
                                req, obj ? obj->value : Value{},
                                obj ? obj->tag : kInitialTag, object,
                                view_.epoch));
    return;
  }
  const Tag threshold = *obj->activity->pending.max_tag();  // line 80
  if (opts_.read_fastpath && obj->tag >= threshold) {
    // Ablation: the locally applied value already dominates every pending
    // pre-write, so it is safe to return it (the paper always parks).
    ++stats_.reads_immediate;
    probe_.event(obs::EventKind::kReadImmediate, client, req);
    if (obj->coded()) {
      send_coded_read_ack(*obj, client, req, ctx);
      return;
    }
    ctx.send_client(client,
                    net::make_payload<ClientReadAck>(req, obj->value, obj->tag,
                                                     object, view_.epoch));
    return;
  }
  ++stats_.reads_parked;
  probe_.event(obs::EventKind::kReadPark, client, req);
  busy(state_of(object)).parked.push_back(
      ParkedRead{client, req, threshold});  // line 81
}

// ----------------------------------------------- coded value plane (D11)

void RingServer::on_frag_write(const FragWrite& m, ServerContext& ctx) {
  ++stats_.frag_writes_in;
  if (m.initiate) ++stats_.client_writes_in;  // the coded write request
  if (code::crc32(m.frag) != m.checksum) {
    // A corrupt fragment must never enter the store: a reader decoding it
    // would reconstruct a value nobody wrote. Drop it — the initiate copy
    // of a dropped fragment simply times out at the client and retries.
    ++stats_.frag_corrupt;
    return;
  }
  ObjectState& obj = state_of(m.object);
  code::StoredFragment frag{m.frag_index, m.n, m.k, m.value_size, m.checksum,
                            m.frag};
  // The commit raced ahead of this fragment (install promoted nothing and
  // recorded the tag): bind the fragment to the committed tag now —
  // staging it would leak, and dropping it would leave this server unable
  // to serve its share to readers and repair. Must run before the dedup
  // check below, which would otherwise swallow exactly this case. A retry
  // of a write whose commit already circulated is not staged either: every
  // server learned completion via note_completed, and staged fragments of
  // completed writes would never be promoted again — a leak.
  std::optional<Tag> late_tag;
  if (obj.frags()) late_tag = obj.activity->frags->take_late(m.client, m.req);
  if (late_tag) {
    obj.activity->frags->adopt(*late_tag, std::move(frag));
    ++stats_.frag_late_binds;
  }
  if (late_tag ||
      (opts_.dedup_retries && request_completed(m.client, m.req))) {
    if (m.initiate && view_.owns(m.object)) {
      dedup_ack(m.client, m.req, m.object, ctx);
    }
    return;
  }
  // Staged before the gate, so a write parked for a view change replays as
  // the same coded write — but only while this ring may still commit it:
  // the deciding view owns the register, or (for a non-initiate copy) the
  // current one does and a write it accepted before the view change may
  // still be draining. Any other write is NACKed and retried on another
  // ring, and only a commit frees a staged fragment; the flip drops what
  // stays staged on registers that moved away.
  if (deciding_view().owns(m.object) ||
      (!m.initiate && view_.owns(m.object))) {
    busy(obj).store().stage(m.client, m.req, std::move(frag));
  }
  if (m.initiate) {
    submit_write(m.client, m.req, CodedShape{m.n, m.k, m.value_size},
                 m.object, ctx);
  }
}

void RingServer::on_frag_fetch(const FragFetch& m, ServerContext& ctx) {
  ++stats_.frag_fetches_in;
  std::vector<FragPart> parts;
  std::uint64_t vsize = 0;
  if (const ObjectState* obj = find_state(m.object); obj && obj->frags()) {
    if (const auto* set = obj->frags()->at(m.tag)) {
      for (const code::StoredFragment& f : *set) {
        parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
        vsize = f.value_size;
      }
    }
  }
  // Empty parts = not found (never staged here, or GC-reclaimed): the
  // client counts the miss and completes from the other k-of-n servers.
  ctx.send_client(m.client,
                  net::make_payload<FragFetchAck>(m.req, m.tag, vsize,
                                                  std::move(parts), m.object,
                                                  view_.epoch));
}

void RingServer::send_coded_read_ack(const ObjectState& obj, ClientId client,
                                     RequestId req, ServerContext& ctx) {
  std::vector<FragPart> parts;
  if (const code::FragmentStore* frags = obj.frags()) {
    if (const auto* set = frags->at(obj.tag)) {
      for (const code::StoredFragment& f : *set) {
        parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
      }
    }
  }
  const CodedShape& shape = *obj.coded();
  ctx.send_client(client, net::make_payload<CodedReadAck>(
                              req, obj.tag, shape.n, shape.k,
                              shape.value_size, std::move(parts), obj.id,
                              view_.epoch));
}

// ------------------------------------------------------- view changes (D8)

void RingServer::begin_view_change(ServerView next) {
  assert(!incoming_);
  assert(next.epoch == view_.epoch + 1);
  incoming_ = std::move(next);
  migrated_in_.clear();
  transition_dedup_merges_ = 0;
}

void RingServer::commit_view_change(ServerContext& ctx) {
  assert(incoming_);
  view_ = std::move(*incoming_);
  incoming_.reset();
  migrated_in_.clear();
  transition_dedup_merges_ = 0;
  // A register that moved away is drained: no write staged for it here can
  // commit on this ring any more.
  for (auto& [id, obj] : objects_) {
    if (obj.frags() && !view_.owns(id)) obj.activity->frags->drop_staged();
  }
  // Replay in arrival order through the normal handlers: the register's
  // migrated state is installed, so writes tag past it and reads see it.
  std::deque<TransitionOp> parked = std::move(transition_parked_);
  transition_parked_.clear();
  for (TransitionOp& op : parked) {
    probe_.event(obs::EventKind::kTransitionReplay, op.client, op.req,
                 view_.epoch);
    if (op.is_read) {
      on_client_read(op.client, op.req, ctx, op.object);
    } else {
      submit_write(op.client, op.req, std::move(op.body), op.object, ctx);
    }
  }
}

void RingServer::on_migrate_state(const MigrateState& m) {
  ObjectState& obj = state_of(m.object);
  install(obj, m.tag, m.value, 0, 0);
  release_if_idle(obj);  // a replicated install may end a coded body
  migrated_in_.insert(m.object);
  ++stats_.migrations_in;
  stats_.migrate_bytes_in += m.wire_size();
  probe_.event(obs::EventKind::kMigrateIn, 0, 0, m.wire_size(), m.object);
}

void RingServer::on_migrate_dedup(const MigrateDedup& m) {
  for (const MigrateDedup::Window& in : m.windows) {
    CompletedWindow& w = completed_req_[in.client];
    w.watermark = std::max(w.watermark, in.watermark);
    for (const RequestId r : in.above) {
      if (r > w.watermark) w.above.insert(r);
    }
    while (!w.above.empty() && *w.above.begin() <= w.watermark + 1) {
      w.watermark = std::max(w.watermark, *w.above.begin());
      w.above.erase(w.above.begin());
    }
  }
  ++stats_.dedup_merges;
  ++transition_dedup_merges_;
}

MigrationProbe RingServer::migration_probe() const {
  assert(incoming_ && incoming_->map);
  MigrationProbe out;
  for (const auto& [id, obj] : objects_) {
    if (!object_moves(id, *view_.map, *incoming_->map)) continue;
    out.moving.emplace_back(id, obj.tag);
    if (!object_quiescent(id)) out.quiescent = false;
  }
  out.migrated.assign(migrated_in_.begin(), migrated_in_.end());
  std::sort(out.migrated.begin(), out.migrated.end());
  out.dedup_merges = transition_dedup_merges_;
  return out;
}

bool RingServer::object_quiescent(ObjectId object) const {
  if (const ObjectState* obj = find_state(object); obj && obj->activity) {
    const Activity& a = *obj->activity;
    if (!a.pending.empty() || !a.outstanding.empty() || !a.adopted.empty() ||
        !a.queued_tags.empty() || !a.early_commits.empty() ||
        !a.parked.empty()) {
      return false;
    }
  }
  for (const LocalWrite& w : write_queue_) {
    if (w.object == object) return false;
  }
  // Repair re-sends and write-phase starts wait in the urgent queue; the
  // fairness queue holds transit traffic. Either may still reference the
  // register.
  for (const auto& msg : urgent_) {
    if (ring_ref(*msg).object == object) return false;
  }
  for (const ForwardItem& item : sched_.queue()) {
    if (ring_ref(*item.msg).object == object) return false;
  }
  return true;
}

std::vector<MigrateDedup::Window> RingServer::completed_windows() const {
  std::vector<MigrateDedup::Window> out;
  out.reserve(completed_req_.size());
  for (const auto& [client, w] : completed_req_) {
    MigrateDedup::Window win;
    win.client = client;
    win.watermark = w.watermark;
    win.above.assign(w.above.begin(), w.above.end());
    out.push_back(std::move(win));
  }
  return out;
}

// ---------------------------------------------------------------- ring in

void RingServer::on_ring_message(net::PayloadPtr msg, ServerContext& ctx) {
  if (msg->kind() == kRingBatch) {
    // Atomic batch delivery, enforced once for every fabric: all parts are
    // applied before control returns (so before any resulting sends are
    // pulled). Batches never nest, so this recurses at most one level.
    const auto& batch = static_cast<const RingBatch&>(*msg);
    for (const auto& part : batch.parts) on_ring_message(part, ctx);
    return;
  }
  ++stats_.ring_messages_in;
  switch (msg->kind()) {
    case kPreWrite:
      ++stats_.pre_writes_in;  // PreWrite alone: the counter predates coding
      [[fallthrough]];
    case kPreWriteFrag:
      handle_pre_write(msg, ctx);
      break;
    case kWriteCommit:
      ++stats_.commits_in;
      handle_commit(msg, static_cast<const WriteCommit&>(*msg), ctx);
      break;
    case kSyncState:
      ++stats_.syncs_in;
      handle_sync(static_cast<const SyncState&>(*msg));
      break;
    case kFragRepair:
      handle_frag_repair(msg, static_cast<const FragRepair&>(*msg));
      break;
    default:
      log::error([&] {
        return "server " + std::to_string(self_) +
               ": unexpected ring message " + msg->describe();
      });
      break;
  }
  stats_.forward_queue_max =
      std::max<std::uint64_t>(stats_.forward_queue_max, sched_.queue().size());
}

void RingServer::handle_pre_write(const net::PayloadPtr& msg,
                                  ServerContext& ctx) {
  const RingRef m = ring_ref(*msg);
  ObjectState& obj = state_of(m.object);
  // Every path below that touches in-flight bookkeeping either leaves some
  // of it live or ends with release_if_idle(); a duplicate absorbed on an
  // idle register never takes an activity block.
  Activity* act = obj.activity.get();
  if (m.tag.id == self_) {
    // My own pre-write completed the loop (lines 32–39).
    if (act == nullptr || !act->outstanding.contains(m.tag)) {
      // Long completed; a crash-recovery duplicate. Absorb.
      ++stats_.duplicates_dropped;
      return;
    }
    OutstandingWrite& ow = act->outstanding.find(m.tag)->second;
    if (ow.write_phase) {
      // Duplicate of a pre-write whose commit is already circulating; the
      // duplicate exists because of a crash re-send, so the commit may have
      // been lost too — re-issue it.
      push_urgent(net::make_payload<WriteCommit>(m.tag, ow.client, ow.req,
                                                 m.object, view_.epoch));
      return;
    }
    ow.write_phase = true;
    act->pending.erase(m.tag);  // line 37
    install(obj, m.tag, ow.body, ow.client, ow.req);  // lines 33–36
    push_urgent(net::make_payload<WriteCommit>(
        m.tag, ow.client, ow.req, m.object, view_.epoch));  // line 38
    return;
  }

  // Transit. The early-commit case must run before duplicate suppression:
  // processing the overtaking commit set the watermark, but this pre-write
  // is the first copy we see, not a duplicate.
  if (act != nullptr && act->early_commits.contains(m.tag)) {
    // Defensive (non-FIFO fabrics only): the commit overtook this pre-write.
    // Apply now and forward the pre-write so downstream servers can do the
    // same; it must NOT enter the pending set (the commit already passed).
    act->early_commits.erase(m.tag);
    // If the original copy still sits in our forward queue, neutralize it:
    // without this, next_ring_send would move it into the pending set at
    // pull time — a pending entry whose commit already passed and will
    // never return, parking every later read forever.
    act->queued_tags.erase(m.tag);
    install(obj, m.tag, body_of(*msg), m.client, m.req);
    note_completed(obj, m.tag, m.client, m.req);
    unpark_up_to(obj, m.tag, ctx);
    release_if_idle(obj);
    sched_.enqueue(ForwardItem{m.tag.id, msg});
    return;
  }

  // Duplicate handling (D5):
  if (already_committed(obj, m.tag)) {
    // The commit already passed here; everyone downstream on this path has
    // or will see that commit before this duplicate. Nothing to do.
    ++stats_.duplicates_dropped;
    return;
  }
  if (act != nullptr && act->queued_tags.contains(m.tag)) {
    // Original copy is still waiting in our forward queue; it will carry the
    // information onward. Drop the duplicate.
    ++stats_.duplicates_dropped;
    return;
  }

  const bool origin_dead = !ring_.is_alive(m.tag.id);
  if (origin_dead && ring_.absorber(m.tag.id) == self_) {
    // D4: the pre-write of a dead origin completed its loop at us — we are
    // the surrogate. Behave exactly as the origin would at line 32: apply,
    // clear pending, and launch the write phase on the origin's behalf.
    if (act != nullptr && act->adopted.contains(m.tag)) {
      // Duplicate while our adoption commit circulates; re-issue the commit
      // in case it was lost with another crash.
      push_urgent(net::make_payload<WriteCommit>(m.tag, m.client, m.req,
                                                 m.object, view_.epoch));
      return;
    }
    ++stats_.adoptions;
    Activity& a = busy(obj);
    a.pending.erase(m.tag);
    install(obj, m.tag, body_of(*msg), m.client, m.req);
    a.adopted[m.tag] = {m.client, m.req};
    push_urgent(net::make_payload<WriteCommit>(m.tag, m.client, m.req,
                                               m.object, view_.epoch));
    return;
  }

  if (act != nullptr && act->pending.contains(m.tag)) {
    // We already forwarded this pre-write once (it is pending here). A
    // duplicate must still travel onward: crash recovery re-sends exist
    // precisely to bridge gaps *downstream* of us. Forward without
    // re-inserting into the pending set.
    forward_duplicate(m.tag.id, msg);
    return;
  }

  // Normal transit path (lines 30–31). The pending insertion happens at
  // forward time (line 71) — see next_ring_send().
  sched_.enqueue(ForwardItem{m.tag.id, msg});
  busy(obj).queued_tags.insert(m.tag);
}

void RingServer::handle_commit(const net::PayloadPtr& msg, const WriteCommit& m,
                               ServerContext& ctx) {
  ObjectState& obj = state_of(m.object);
  Activity* act = obj.activity.get();
  if (m.tag.id == self_) {
    // My own commit returned: the write is complete (lines 49–51).
    if (act == nullptr || !act->outstanding.contains(m.tag)) {
      ++stats_.duplicates_dropped;  // duplicate of an acked write
      return;
    }
    const auto it = act->outstanding.find(m.tag);
    note_completed(obj, m.tag, it->second.client, it->second.req);
    ctx.send_client(it->second.client,
                    net::make_payload<ClientWriteAck>(
                        it->second.req, m.object, view_.epoch));
    act->outstanding.erase(it);
    unpark_up_to(obj, m.tag, ctx);
    release_if_idle(obj);
    return;
  }

  // Surrogate absorption: a commit we issued for a dead origin came back.
  if (act != nullptr) {
    auto ad = act->adopted.find(m.tag);
    if (ad != act->adopted.end() && !ring_.is_alive(m.tag.id) &&
        ring_.absorber(m.tag.id) == self_) {
      note_completed(obj, m.tag, ad->second.first, ad->second.second);
      act->adopted.erase(ad);
      unpark_up_to(obj, m.tag, ctx);
      release_if_idle(obj);
      return;
    }
  }

  if (already_committed(obj, m.tag)) {
    // Recovery duplicate. Forward it (downstream may have missed it) unless
    // we are where it must be absorbed.
    if (!ring_.is_alive(m.tag.id) && ring_.absorber(m.tag.id) == self_) {
      ++stats_.duplicates_dropped;
      return;
    }
    forward_duplicate(m.tag.id, msg);
    return;
  }

  auto entry = act ? act->pending.erase(m.tag) : std::nullopt;  // line 47
  if (entry) {
    // Lines 43–46, the body cached at pre-write time. A coded write's value
    // never travelled: install binds the fragment this server staged from
    // the client's FragWrite to the committing tag.
    install(obj, m.tag, entry->body, entry->client, entry->req);
  } else {
    // Commit overtook its pre-write (only possible on a non-FIFO fabric).
    // Remember it; the pre-write handler completes the work.
    busy(obj).early_commits.insert(m.tag);
  }
  note_completed(obj, m.tag, m.client, m.req);
  unpark_up_to(obj, m.tag, ctx);
  release_if_idle(obj);
  sched_.enqueue(ForwardItem{m.tag.id, msg});  // line 48
}

void RingServer::handle_sync(const SyncState& m) {
  ObjectState& obj = state_of(m.object);
  install(obj, m.tag, m.value, 0, 0);
  release_if_idle(obj);  // a replicated install may end a coded body
}

void RingServer::handle_frag_repair(const net::PayloadPtr& msg,
                                    const FragRepair& m) {
  ObjectState& obj = state_of(m.object);
  // A repair doubles as the coded register's SyncState: it names the
  // origin's committed tag and geometry, so a spliced-in successor that
  // missed the commit adopts the coded state here (same "at least as fresh
  // as the predecessor" argument as handle_sync).
  if (m.tag > obj.tag) {
    obj.tag = m.tag;
    obj.value = Value{};
    busy(obj).coded = CodedShape{m.n, m.k, m.value_size};
  }

  if (m.origin == self_) {
    // Full loop: the ring contributed its fragments. Regenerate the crashed
    // server's index so the code's failure tolerance is restored.
    if (m.parts.size() >= std::size_t{m.k}) {
      std::vector<code::FragmentRef> refs;
      refs.reserve(m.parts.size());
      for (const FragPart& p : m.parts) {
        refs.emplace_back(p.index, std::string_view(p.bytes));
      }
      try {
        code::MdsCodec codec(m.n, m.k);
        std::string frag = codec.regenerate(m.missing_index, refs,
                                            m.value_size);
        const std::uint32_t crc = code::crc32(frag);
        busy(obj).store().adopt(
            m.tag, code::StoredFragment{m.missing_index, m.n, m.k,
                                        m.value_size, crc, std::move(frag)});
        ++stats_.frag_repairs;
      } catch (const std::invalid_argument&) {
        ++stats_.frag_corrupt;  // inconsistent contributions: abandon
      }
    }
    return;  // absorb — repairs circulate exactly once
  }
  if (!ring_.is_alive(m.origin) && ring_.absorber(m.origin) == self_) {
    return;  // the origin died mid-repair; absorb on its behalf
  }

  // Transit: contribute our fragments at the tag while fewer than k are
  // aboard, then forward (fairness-accounted under the origin, like any
  // ring message).
  std::vector<FragPart> parts = m.parts;
  bool contributed = false;
  if (obj.frags() && parts.size() < std::size_t{m.k}) {
    if (const auto* set = obj.frags()->at(m.tag)) {
      for (const code::StoredFragment& f : *set) {
        if (parts.size() >= std::size_t{m.k}) break;
        if (f.frag_index == m.missing_index) continue;
        const bool dup =
            std::any_of(parts.begin(), parts.end(), [&](const FragPart& p) {
              return p.index == f.frag_index;
            });
        if (dup) continue;
        parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
        contributed = true;
      }
    }
  }
  net::PayloadPtr onward =
      contributed ? net::make_payload<FragRepair>(m.origin, m.tag, m.n, m.k,
                                                  m.missing_index,
                                                  m.value_size,
                                                  std::move(parts), m.object,
                                                  m.epoch)
                  : msg;
  sched_.enqueue(ForwardItem{m.origin, std::move(onward)});
}

// ---------------------------------------------------------------- egress

bool RingServer::has_ring_traffic() const {
  if (solo()) return false;
  return !urgent_.empty() || !sched_.forward_queue_empty() ||
         !write_queue_.empty();
}

std::optional<RingSend> RingServer::next_ring_send() {
  if (solo()) return std::nullopt;
  if (!urgent_.empty()) {
    net::PayloadPtr msg = std::move(urgent_.front());
    urgent_.pop_front();
    if (msg->kind() == kWriteCommit) ++stats_.commits_sent;
    ++stats_.ring_messages_out;
    if (probe_.attached()) {
      const RingRef r = ring_ref(*msg);
      probe_.event(obs::EventKind::kFairnessPick, r.client, r.req, batch_seq_);
    }
    return RingSend{successor_, std::move(msg)};
  }

  FairScheduler::Decision d;
  if (opts_.fairness) {
    d = sched_.next(!write_queue_.empty());
  } else {
    // Ablation: forward-first FIFO, no per-origin accounting.
    d = sched_.next_fifo(!write_queue_.empty());
  }
  if (d.initiate_local) {
    LocalWrite w = std::move(write_queue_.front());
    write_queue_.pop_front();  // line 27
    ++stats_.ring_messages_out;
    probe_.event(obs::EventKind::kFairnessPick, w.client, w.req, batch_seq_);
    return initiate_write(std::move(w));
  }
  if (d.forward) {
    ForwardItem item = std::move(*d.forward);
    sched_.count_sent(item.origin);  // line 72
    const RingRef ref = ring_ref(*item.msg);
    if (item.msg->kind() == kPreWrite || item.msg->kind() == kPreWriteFrag) {
      // Line 71: a pre-write enters our pending set when we forward it —
      // unless its commit already overtook it while it sat in this queue
      // (crash re-send timing on a real fabric). Such a tag must apply now
      // and never enter pending: the commit will not come back to erase the
      // entry, and a stale pending tag parks every later read forever.
      ObjectState& obj = state_of(ref.object);
      if (Activity* act = obj.activity.get();
          act != nullptr && act->queued_tags.erase(ref.tag) > 0) {
        if (act->early_commits.erase(ref.tag) > 0) {
          install(obj, ref.tag, body_of(*item.msg), ref.client, ref.req);
          release_if_idle(obj);
        } else {
          act->pending.insert(
              PendingEntry{ref.tag, body_of(*item.msg), ref.client, ref.req});
        }
      }
    }
    ++stats_.forwards;
    ++stats_.ring_messages_out;
    probe_.event(obs::EventKind::kFairnessPick, ref.client, ref.req,
                 batch_seq_);
    return RingSend{successor_, std::move(item.msg)};
  }
  return std::nullopt;
}

net::PayloadPtr RingBatchSend::into_wire() && {
  assert(!msgs.empty());
  return msgs.n_ == 1 ? std::move(msgs.first_)
                      : net::make_payload<RingBatch>(std::move(msgs.train_));
}

std::optional<RingBatchSend> RingServer::next_ring_batch() {
  ++batch_seq_;  // the id kFairnessPick events stamp on this pull's picks
  auto first = next_ring_send();
  if (!first) return std::nullopt;
  RingBatchSend batch;
  batch.to = first->to;
  batch.msgs.push_back(std::move(first->msg));
  const std::size_t cap = opts_.max_batch < 1 ? 1 : opts_.max_batch;
  while (batch.msgs.size() < cap) {
    auto more = next_ring_send();
    if (!more) break;
    // The successor only changes inside on_peer_crash, never between pulls,
    // so every message in one batch targets the same link.
    assert(more->to == batch.to);
    batch.msgs.push_back(std::move(more->msg));
  }
  if (batch.msgs.size() > 1) ++stats_.batches_out;
  // One sample per transmission (singletons included), so the histogram's
  // mean is exactly RingTraffic's fill: ring messages / transmissions.
  probe_.record_batch_fill(static_cast<double>(batch.msgs.size()));
  probe_.event(obs::EventKind::kBatchSeal, 0, 0, batch_seq_,
               batch.msgs.size());
  return batch;
}

RingSend RingServer::initiate_write(LocalWrite w) {
  // Lines 22–26: tag = [max(highest pending ts, local ts) + 1, i]. The
  // timestamp space is per object: registers version independently.
  ObjectState& obj = state_of(w.object);
  Activity& act = busy(obj);
  std::uint64_t ts = obj.tag.ts;
  if (auto hp = act.pending.max_tag()) ts = std::max(ts, hp->ts);
  const Tag tag{ts + 1, self_};

  act.pending.insert(PendingEntry{tag, w.body, w.client, w.req});
  act.outstanding[tag] = OutstandingWrite{w.client, w.req, w.body};
  sched_.count_sent(self_);  // line 26
  ++stats_.pre_writes_initiated;
  return RingSend{successor_,
                  pre_write(w.object, tag, w.body, w.client, w.req)};
}

net::PayloadPtr RingServer::pre_write(ObjectId object, const Tag& tag,
                                      const WriteBody& body, ClientId client,
                                      RequestId req) const {
  if (const auto& shape = body.coded) {
    return net::make_payload<PreWriteFrag>(tag, client, req, shape->n,
                                           shape->k, shape->value_size,
                                           object, view_.epoch);
  }
  return net::make_payload<PreWrite>(tag, body.value, client, req, object,
                                     view_.epoch);
}

void RingServer::solo_write(const LocalWrite& w, ServerContext& ctx) {
  ObjectState& obj = state_of(w.object);
  std::uint64_t ts = obj.tag.ts;
  if (obj.has_pending()) {
    ts = std::max(ts, obj.activity->pending.max_tag()->ts);
  }
  const Tag tag{ts + 1, self_};
  install(obj, tag, w.body, w.client, w.req);
  note_completed(obj, tag, w.client, w.req);
  ctx.send_client(w.client, net::make_payload<ClientWriteAck>(
                                w.req, w.object, view_.epoch));
  unpark_up_to(obj, tag, ctx);
  release_if_idle(obj);
}

// ---------------------------------------------------------------- crashes

void RingServer::on_peer_crash(ProcessId crashed, ServerContext& ctx) {
  if (crashed == self_ || !ring_.mark_crashed(crashed)) return;
  std::vector<net::PayloadPtr> duplicates = std::move(forwarded_duplicates_);
  forwarded_duplicates_.clear();

  if (ring_.alive_count() == 1) {
    resolve_everything_solo(ctx);
    return;
  }

  const bool was_successor = (crashed == successor_);
  successor_ = ring_.successor(self_);

  if (was_successor) {
    // Lines 86–91: splice the ring; bring the new successor up to date and
    // re-send every pending pre-write (anything swallowed by the dead
    // successor is covered; duplicates are suppressed downstream). One
    // repair pass per touched register, default object first (objects_ is
    // ordered) — single-register traffic is exactly the original repair
    // (the default register syncs unconditionally, as the seed did).
    // Registers still in their initial state need no SyncState: applying
    // the initial tag downstream is a no-op, and with one register per key
    // a namespace-wide sweep should not flood the ring with them.
    for (const auto& [id, obj] : objects_) {
      if (obj.coded()) {
        // A coded register syncs through its FragRepair (launched in the
        // absorber pass below — it carries tag + geometry); a SyncState
        // with the empty value would install an empty *replicated* state.
      } else if (id == kDefaultObject || !obj.tag.is_initial()) {
        ++stats_.syncs_sent;
        push_urgent(net::make_payload<SyncState>(obj.tag, obj.value, id,
                                                 view_.epoch));
      }
      if (!obj.has_pending()) continue;
      for (const auto& e : obj.activity->pending.snapshot()) {
        push_urgent(pre_write(id, e.tag, e.body, e.client, e.req));
      }
    }
    // Staggered notices: an origin that learned of the crash first re-sent
    // its current phase, and we forwarded that duplicate into the dead
    // successor before our own notice arrived — the original commit may
    // have died there too, so nothing else would ever complete the write.
    // Re-send every duplicate forwarded since the last notice; downstream
    // duplicate suppression absorbs the ones that did get through.
    for (net::PayloadPtr& msg : duplicates) push_urgent(std::move(msg));
  }

  for (const auto& [id, obj] : objects_) {
    // Only a register with an activity block has anything to repair: the
    // rest have no in-flight write and no fragments.
    if (!obj.activity) continue;
    const Activity& act = *obj.activity;
    // Origin-side repair: any of my in-flight writes may have died inside
    // the crashed server. Re-issue the current phase; duplicates are
    // absorbed.
    for (const auto& [tag, ow] : act.outstanding) {
      if (ow.write_phase) {
        push_urgent(net::make_payload<WriteCommit>(tag, ow.client, ow.req, id,
                                                   view_.epoch));
      } else {
        push_urgent(pre_write(id, tag, ow.body, ow.client, ow.req));
      }
    }

    // D4 — adoption: if we are the dead server's surrogate, restart the
    // circulation of every pre-write it originated that is still pending
    // here; when each loops back to us we commit it on the origin's behalf.
    if (ring_.absorber(crashed) == self_) {
      for (const auto& e : act.pending.entries_from(crashed)) {
        ++stats_.adoptions;
        push_urgent(pre_write(id, e.tag, e.body, e.client, e.req));
      }

      // D11 — coded repair (the RADON direction): the crashed server's
      // fragment of every coded register is gone. Circulate a FragRepair
      // seeded with our fragments; each server appends its own until k are
      // aboard, and back here the missing index is regenerated and
      // adopted. Doubles as the coded register's splice sync (see
      // handle_frag_repair). Only worthwhile while >= k servers survive.
      const auto& shape = act.coded;
      if (shape && ring_.alive_count() >= std::size_t{shape->k}) {
        std::vector<FragPart> parts;
        if (act.frags) {
          if (const auto* set = act.frags->at(obj.tag)) {
            for (const code::StoredFragment& f : *set) {
              parts.push_back(FragPart{f.frag_index, f.checksum, f.bytes});
            }
          }
        }
        push_urgent(net::make_payload<FragRepair>(
            self_, obj.tag, shape->n, shape->k,
            static_cast<std::uint8_t>(crashed), shape->value_size,
            std::move(parts), id, view_.epoch));
      }
    }
  }
}

void RingServer::resolve_everything_solo(ServerContext& ctx) {
  // Only this server remains: every pending pre-write of every register
  // resolves by local application in tag order; every queued/outstanding
  // write completes.
  for (auto& [id, obj] : objects_) {
    if (!obj.activity) continue;  // nothing in flight
    Activity& act = *obj.activity;
    for (const auto& e : act.pending.snapshot()) {
      install(obj, e.tag, e.body, e.client, e.req);
      note_completed(obj, e.tag, e.client, e.req);
    }
    act.pending.clear();

    for (auto& [tag, ow] : act.outstanding) {
      install(obj, tag, ow.body, ow.client, ow.req);
      note_completed(obj, tag, ow.client, ow.req);
      ctx.send_client(ow.client, net::make_payload<ClientWriteAck>(
                                     ow.req, id, view_.epoch));
    }
    act.outstanding.clear();
    act.adopted.clear();
    act.queued_tags.clear();
    act.early_commits.clear();

    // Parked reads: every threshold tag has now been applied or superseded,
    // so the current tag dominates every parked threshold.
    unpark_up_to(obj, obj.tag, ctx);
    release_if_idle(obj);
  }
  urgent_.clear();

  // Queued client writes complete through the solo path.
  std::deque<LocalWrite> queued = std::move(write_queue_);
  write_queue_.clear();
  for (auto& w : queued) solo_write(w, ctx);
}

// ---------------------------------------------------------------- helpers

void RingServer::install(ObjectState& obj, const Tag& t, const WriteBody& body,
                         ClientId client, RequestId req) {
  if (t > obj.tag) {
    obj.tag = t;
    obj.value = body.value;
    if (body.coded) {
      busy(obj).coded = body.coded;
    } else if (obj.activity) {
      obj.activity->coded.reset();
    }
  }
  // A replicated body superseding a coded one flips the register back to
  // replicated mode; old fragment sets stay until the GC watermark of a
  // later coded commit reclaims them.
  if (!body.coded) return;
  ++stats_.coded_commits;
  // Promote even when t is superseded: the fragment belongs to tag t
  // regardless, and an in-flight read of t may still fetch it (the GC
  // slack below is what bounds how long). A promote with nothing staged
  // means the FragWrite has not arrived here (the fan-out and the ring
  // share no ordering, so the commit can win the race — or the fragment
  // was lost to a crash window): the commit still applies — that is an
  // availability loss of one fragment, never an atomicity violation.
  // Remember the tag so a late-arriving fragment binds to it directly
  // (on_frag_write); repair can also refill it.
  code::FragmentStore& store = busy(obj).store();
  if (!store.promote(client, req, t)) {
    ++stats_.frag_missing;
    store.note_missing(client, req, t);
  }
  const std::size_t freed = store.gc_below(obj.tag, opts_.value_policy.gc_keep);
  if (freed > 0) {
    ++stats_.gc_runs;
    stats_.gc_reclaimed_bytes += freed;
  }
}

void RingServer::note_completed(ObjectState& obj, const Tag& t,
                                ClientId client, RequestId req) {
  if (t.id < ring_.initial_size()) {
    obj.commit_watermark[t.id] = std::max(obj.commit_watermark[t.id], t.ts);
  }
  if (!opts_.dedup_retries) return;
  CompletedWindow& w = completed_req_[client];
  if (req <= w.watermark) return;  // stale duplicate
  // D6: advance the watermark over the gapless completed prefix. Write ids
  // are gapless per client (reads use a disjoint id space), so a gap is a
  // write whose commit has not circulated yet — it will, and `above`
  // drains. No forced compaction: guessing a gap closed could ack a write
  // that was never applied (an acked-but-lost write). An in-order
  // completion (the usual one) advances the watermark without touching
  // `above`.
  if (req != w.watermark + 1) {
    w.above.insert(req);
    return;
  }
  w.watermark = req;
  while (!w.above.empty() && *w.above.begin() == w.watermark + 1) {
    w.watermark = *w.above.begin();
    w.above.erase(w.above.begin());
  }
}

bool RingServer::request_completed(ClientId client, RequestId req) const {
  auto it = completed_req_.find(client);
  if (it == completed_req_.end()) return false;
  return req <= it->second.watermark || it->second.above.contains(req);
}

bool RingServer::already_committed(const ObjectState& obj,
                                   const Tag& t) const {
  return t.id < ring_.initial_size() && t.ts <= obj.commit_watermark[t.id];
}

void RingServer::unpark_up_to(ObjectState& obj, const Tag& t,
                              ServerContext& ctx) {
  if (!obj.activity || obj.activity->parked.empty()) return;
  std::vector<ParkedRead>& parked = obj.activity->parked;
  std::vector<ParkedRead> keep;
  keep.reserve(parked.size());
  for (ParkedRead& r : parked) {
    if (r.threshold <= t) {
      // D2: reply with the *current* local value — at least as new as the
      // threshold since the unblocking commit has been applied.
      if (obj.coded()) {
        send_coded_read_ack(obj, r.client, r.req, ctx);
      } else {
        ctx.send_client(r.client,
                        net::make_payload<ClientReadAck>(r.req, obj.value,
                                                         obj.tag, obj.id,
                                                         view_.epoch));
      }
    } else {
      keep.push_back(std::move(r));
    }
  }
  parked.swap(keep);
}

void RingServer::forward_duplicate(ProcessId origin,
                                   const net::PayloadPtr& msg) {
  sched_.enqueue(ForwardItem{origin, msg});
  forwarded_duplicates_.push_back(msg);
}

void RingServer::push_urgent(net::PayloadPtr msg) {
  urgent_.push_back(std::move(msg));
  stats_.urgent_queue_max =
      std::max<std::uint64_t>(stats_.urgent_queue_max, urgent_.size());
}

const Tag& RingServer::current_tag(ObjectId object) const {
  static const Tag initial = kInitialTag;
  const ObjectState* obj = find_state(object);
  return obj ? obj->tag : initial;
}

const Value& RingServer::current_value(ObjectId object) const {
  static const Value empty;
  const ObjectState* obj = find_state(object);
  return obj ? obj->value : empty;
}

const PendingSet& RingServer::pending(ObjectId object) const {
  static const PendingSet none;
  const ObjectState* obj = find_state(object);
  return obj && obj->activity ? obj->activity->pending : none;
}

std::size_t RingServer::parked_read_count(ObjectId object) const {
  const ObjectState* obj = find_state(object);
  return obj && obj->activity ? obj->activity->parked.size() : 0;
}

RingServer::Activity& RingServer::busy(ObjectState& obj) {
  if (!obj.activity) {
    if (spares_.empty()) {
      obj.activity = std::make_unique<Activity>();
    } else {
      obj.activity = std::move(spares_.back());
      spares_.pop_back();
    }
  }
  return *obj.activity;
}

void RingServer::release_if_idle(ObjectState& obj) {
  if (!obj.activity || !obj.activity->idle()) return;
  // An idle block is empty, so it serves the next activation as it is
  // (with whatever bucket and vector capacity it grew).
  if (spares_.size() < kSpareActivities) {
    spares_.push_back(std::move(obj.activity));
  } else {
    obj.activity.reset();
  }
}

std::size_t RingServer::active_registers() const {
  return static_cast<std::size_t>(std::count_if(
      objects_.begin(), objects_.end(),
      [](const auto& entry) { return entry.second.activity != nullptr; }));
}

std::size_t RingServer::fragment_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, obj] : objects_) {
    if (const code::FragmentStore* frags = obj.frags()) {
      total += frags->stored_bytes() + frags->staged_bytes();
    }
  }
  return total;
}

}  // namespace hts::core
