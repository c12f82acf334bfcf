#include "storage/undo_log.h"

#include "common/failpoint.h"

namespace sopr {

Status UndoLog::CheckAppend() {
  SOPR_FAILPOINT_RETURN("undo.append");
  if (record_budget_ != 0 && records_.size() >= record_budget_) {
    return Status::ResourceExhausted(
        "undo log budget of " + std::to_string(record_budget_) +
        " records exhausted");
  }
  return Status::OK();
}

Status UndoLog::Record(UndoRecord::Kind kind, std::string table,
                       TupleHandle handle) {
  SOPR_RETURN_NOT_OK(CheckAppend());
  RecordApplied(kind, std::move(table), handle);
  return Status::OK();
}

void UndoLog::TruncateTo(Mark m) {
  if (m < records_.size()) {
    records_.resize(m);
  }
}

}  // namespace sopr
