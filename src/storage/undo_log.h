#ifndef SOPR_STORAGE_UNDO_LOG_H_
#define SOPR_STORAGE_UNDO_LOG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/tuple_handle.h"

namespace sopr {

/// One reversible mutation: which row of which table. The before-image
/// of a delete or update is not copied here — the mutation kept it as
/// the row's pending version (Table::Erase / Replace), and the
/// structural rollback restores it from there. At commit the same
/// (table, handle) pairs say which rows to stamp.
struct UndoRecord {
  enum class Kind { kInsert, kDelete, kUpdate };
  Kind kind;
  std::string table;  // lowercased table name
  TupleHandle handle = kInvalidHandle;
};

/// Append-only log of mutations within the current transaction. The
/// Database replays it backwards to implement the paper's `rollback`
/// action (roll back to the transaction's start state S0). Marks allow
/// partial rollback for nested scopes (used by failed operation blocks).
class UndoLog {
 public:
  using Mark = size_t;

  /// Appends fail with kResourceExhausted once the log holds
  /// `record_budget` records (0 = unlimited), simulating log-space
  /// exhaustion; the caller must revert the mutation it failed to log.
  /// The `undo.append` failpoint can inject the same failure.
  Status Record(UndoRecord::Kind kind, std::string table,
                TupleHandle handle);

  /// Appends with neither the budget nor the failpoint check. Redo
  /// application (recovery, a replication follower) logs mutations the
  /// log already made durable, so nothing may refuse them.
  void RecordApplied(UndoRecord::Kind kind, std::string table,
                     TupleHandle handle) {
    records_.push_back(UndoRecord{kind, std::move(table), handle});
  }

  /// Caps the number of records the log accepts (0 = unlimited). Records
  /// already in the log are unaffected — rollback always works.
  void set_record_budget(size_t budget) { record_budget_ = budget; }
  size_t record_budget() const { return record_budget_; }

  Mark mark() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }

  /// Records at and after `m`, newest last. Caller applies them in reverse.
  const std::vector<UndoRecord>& records() const { return records_; }

  /// Drop records from `m` onward (after they have been applied), or drop
  /// everything up to `m` at commit.
  void TruncateTo(Mark m);
  void Clear() { records_.clear(); }

 private:
  Status CheckAppend();

  std::vector<UndoRecord> records_;
  size_t record_budget_ = 0;
};

}  // namespace sopr

#endif  // SOPR_STORAGE_UNDO_LOG_H_
