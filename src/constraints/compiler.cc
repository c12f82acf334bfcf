#include "constraints/compiler.h"

namespace sopr {

Status ConstraintCompiler::Install(const std::string& sql) {
  SOPR_RETURN_NOT_OK(engine_->Execute(sql));
  generated_sql_.push_back(sql);
  return Status::OK();
}

Result<std::vector<std::string>> ConstraintCompiler::AddReferential(
    const ReferentialConstraint& c) {
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.name, "constraint name"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.child_table, "child table"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.child_column, "child column"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.parent_table, "parent table"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.parent_column, "parent column"));

  std::vector<std::string> names;

  // (a) Parent deletion.
  std::string del_rule = c.name + "_parent_delete";
  std::string deleted_keys = "(select " + c.parent_column + " from deleted " +
                             c.parent_table + ")";
  switch (c.on_parent_delete) {
    case ViolationAction::kCascade:
      SOPR_RETURN_NOT_OK(Install(
          "create rule " + del_rule + " when deleted from " + c.parent_table +
          " then delete from " + c.child_table + " where " + c.child_column +
          " in " + deleted_keys));
      break;
    case ViolationAction::kSetNull:
      SOPR_RETURN_NOT_OK(Install(
          "create rule " + del_rule + " when deleted from " + c.parent_table +
          " then update " + c.child_table + " set " + c.child_column +
          " = null where " + c.child_column + " in " + deleted_keys));
      break;
    case ViolationAction::kRollback:
      SOPR_RETURN_NOT_OK(Install(
          "create rule " + del_rule + " when deleted from " + c.parent_table +
          " if exists (select * from " + c.child_table + " where " +
          c.child_column + " in " + deleted_keys + ") then rollback"));
      break;
  }
  names.push_back(del_rule);

  // (b) Child insert / FK update must reference an existing parent. The
  // key list leaves NULL parent keys out: one NULL would make every
  // `not in` below UNKNOWN, and no check would ever fire.
  std::string chk_rule = c.name + "_child_check";
  std::string parent_keys = "(select " + c.parent_column + " from " +
                            c.parent_table + " where " + c.parent_column +
                            " is not null)";
  SOPR_RETURN_NOT_OK(Install(
      "create rule " + chk_rule + " when inserted into " + c.child_table +
      " or updated " + c.child_table + "." + c.child_column +
      " if exists (select * from inserted " + c.child_table + " where " +
      c.child_column + " is not null and " + c.child_column + " not in " +
      parent_keys + ") or exists (select * from new updated " +
      c.child_table + "." + c.child_column + " where " + c.child_column +
      " is not null and " + c.child_column + " not in " + parent_keys +
      ") then rollback"));
  names.push_back(chk_rule);

  // (c) Parent key updates may not orphan children (conservative:
  // rollback whenever a referenced key value disappears).
  std::string upd_rule = c.name + "_parent_update";
  SOPR_RETURN_NOT_OK(Install(
      "create rule " + upd_rule + " when updated " + c.parent_table + "." +
      c.parent_column + " if exists (select * from " + c.child_table +
      " where " + c.child_column + " is not null and " + c.child_column +
      " not in " + parent_keys + ") then rollback"));
  names.push_back(upd_rule);

  return names;
}

Result<std::vector<std::string>> ConstraintCompiler::AddDomain(
    const DomainConstraint& c) {
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.name, "constraint name"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.table, "table"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.column, "column"));
  if (c.predicate_sql.empty()) {
    return Status::InvalidArgument("domain predicate must be non-empty");
  }

  std::string rule = c.name + "_domain";
  SOPR_RETURN_NOT_OK(Install(
      "create rule " + rule + " when inserted into " + c.table +
      " or updated " + c.table + "." + c.column +
      " if exists (select * from inserted " + c.table + " where not (" +
      c.predicate_sql + ")) or exists (select * from new updated " + c.table +
      "." + c.column + " where not (" + c.predicate_sql +
      ")) then rollback"));
  return std::vector<std::string>{rule};
}

Result<std::vector<std::string>> ConstraintCompiler::AddUnique(
    const UniqueConstraint& c) {
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.name, "constraint name"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.table, "table"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.column, "column"));

  std::string rule = c.name + "_unique";
  SOPR_RETURN_NOT_OK(Install(
      "create rule " + rule + " when inserted into " + c.table +
      " or updated " + c.table + "." + c.column + " if exists (select " +
      c.column + " from " + c.table + " where " + c.column +
      " is not null group by " + c.column +
      " having count(*) > 1) then rollback"));
  return std::vector<std::string>{rule};
}

Result<std::vector<std::string>> ConstraintCompiler::AddAggregate(
    const AggregateConstraint& c) {
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.name, "constraint name"));
  SOPR_RETURN_NOT_OK(ValidateIdentifier(c.table, "table"));
  if (c.predicate_sql.empty()) {
    return Status::InvalidArgument("aggregate predicate must be non-empty");
  }

  std::string rule = c.name + "_aggregate";
  SOPR_RETURN_NOT_OK(Install(
      "create rule " + rule + " when inserted into " + c.table +
      " or deleted from " + c.table + " or updated " + c.table +
      " if not (" + c.predicate_sql + ") then rollback"));
  return std::vector<std::string>{rule};
}

}  // namespace sopr
