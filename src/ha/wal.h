// Decision/state WAL for the replicated controller (src/ha).
//
// The active leader turns every replication event the Controller emits
// (core/replica_state.h) into a sequence-numbered record. The log index is
// globally monotonic across epochs; a kEpochStart record marks each
// leadership handoff and resets the replica state it governs, so replay is
// a pure left fold: applying records [0..n) in index order always produces
// the same replica, regardless of which leader wrote which prefix
// (deterministic WAL replay).
#pragma once

#include <cstdint>
#include <deque>

#include "core/replica_state.h"

namespace escra::ha {

using WalKind = core::ReplicationEvent::Kind;

// One log record: the Controller's replication event (which carries the
// epoch of the leader that emitted it) and its position in the log.
struct WalRecord : core::ReplicationEvent {
  std::uint64_t index = 0;  // position in the log (assigned by append)
};

// The leader's in-memory log. Indices never reset (standby cursors stay
// valid across epochs); the prefix every standby has acked is trimmed.
class WalLog {
 public:
  // Assigns the next index, retains the record, returns its index.
  std::uint64_t append(WalRecord record) {
    record.index = next_index_;
    records_.push_back(record);
    return next_index_++;
  }

  // First retained index / one past the last written index.
  std::uint64_t base() const { return next_index_ - records_.size(); }
  std::uint64_t next_index() const { return next_index_; }
  std::size_t retained() const { return records_.size(); }

  // Record at `index`; must be in [base, next_index).
  const WalRecord& at(std::uint64_t index) const {
    return records_[index - base()];
  }

  // Drops every record below `index` (all-standby-acked prefix).
  void trim_to(std::uint64_t index) {
    while (!records_.empty() && records_.front().index < index) {
      records_.pop_front();
    }
  }

 private:
  std::deque<WalRecord> records_;
  std::uint64_t next_index_ = 0;
};

// The state a WAL prefix folds to (core/replica_state.h): held identically
// by the leader (its "book", seeded from Controller::image() and fed by the
// replication hook) and by every standby (fed by the delivered stream), so
// takeover state equals leader state as of the last applied record.
using ReplicaState = core::ReplicaState;

}  // namespace escra::ha
