// Recorded operation histories for linearizability checking.
//
// The harness records one `Op` per completed client operation. Write values
// are identified by unique 64-bit ids (the workload generator guarantees
// uniqueness via Value::synthetic seeds); value id 0 denotes the register's
// initial value.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.h"

namespace hts::lincheck {

inline constexpr std::uint64_t kInitialValueId = 0;
inline constexpr double kPending = std::numeric_limits<double>::infinity();

struct Op {
  ClientId client = 0;
  bool is_read = false;
  /// Value written (writes) or returned (reads).
  std::uint64_t value = kInitialValueId;
  double invoked_at = 0.0;
  /// kPending if the operation never completed (client crashed / run ended).
  double responded_at = kPending;
  /// Optional white-box tag (reads carry the tag of the returned value);
  /// kNoProcess id when absent.
  Tag tag = kInitialTag;
  /// Which register the operation addressed. Checkers partition by object:
  /// atomicity is per register, histories span the namespace.
  ObjectId object = kDefaultObject;
  /// Which ring (shard) served the operation — kNoRing when the fabric did
  /// not identify the server. In a sharded deployment every object lives on
  /// exactly one ring *per epoch*, so checkers reject any object whose ops
  /// in one epoch were served by two different rings (a routing violation
  /// that per-ring protocol correctness cannot catch). Across epochs the
  /// serving ring may legitimately change — that is a reconfiguration.
  RingId ring = kNoRing;
  /// Epoch the op was served in (from the reply frame; 0 = boot view). The
  /// epoch-aware assignment check verifies `ring` owns `object` under it.
  Epoch epoch = 0;
  /// Wire-level request id the op travelled under (0 when the recorder did
  /// not track it). Joins a failed checker's witness ops to their trace
  /// spans in the observability buffer. Appended last so aggregate
  /// initializers of the earlier fields stay valid.
  RequestId req = 0;

  [[nodiscard]] bool pending() const { return responded_at == kPending; }

  /// Real-time precedence: this op responded before `o` was invoked.
  [[nodiscard]] bool precedes(const Op& o) const {
    return !pending() && responded_at < o.invoked_at;
  }

  [[nodiscard]] std::string describe() const;
};

class History {
 public:
  void record_write(ClientId c, std::uint64_t value, double inv, double resp,
                    ObjectId object, RingId ring = kNoRing,
                    Epoch epoch = 0, RequestId req = 0) {
    ops_.push_back(
        Op{c, false, value, inv, resp, kInitialTag, object, ring, epoch, req});
  }

  void record_read(ClientId c, std::uint64_t value, double inv, double resp,
                   Tag tag, ObjectId object, RingId ring = kNoRing,
                   Epoch epoch = 0, RequestId req = 0) {
    ops_.push_back(
        Op{c, true, value, inv, resp, tag, object, ring, epoch, req});
  }

  void record(Op op) { ops_.push_back(op); }

  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  [[nodiscard]] bool empty() const { return ops_.empty(); }
  void clear() { ops_.clear(); }

 private:
  std::vector<Op> ops_;
};

}  // namespace hts::lincheck
