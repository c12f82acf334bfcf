#include "io/dump.h"

#include "common/string_util.h"
#include "sql/parser.h"

namespace sopr {

Result<std::string> DumpSchemaSql(Engine* engine) {
  std::string out;
  for (const std::string& name : engine->db().catalog().TableNames()) {
    SOPR_ASSIGN_OR_RETURN(const TableSchema* schema,
                          engine->db().catalog().GetTable(name));
    out += "create table " + schema->name() + " (";
    for (size_t i = 0; i < schema->num_columns(); ++i) {
      if (i > 0) out += ", ";
      out += schema->columns()[i].name;
      out += " ";
      out += ValueTypeName(schema->columns()[i].type);
    }
    out += ");\n";

    SOPR_ASSIGN_OR_RETURN(const Table* table, engine->db().GetTable(name));
    for (size_t c = 0; c < schema->num_columns(); ++c) {
      if (table->GetIndex(c) != nullptr) {
        out += "create index on " + schema->name() + " (" +
               schema->columns()[c].name + ");\n";
      }
    }
  }
  return out;
}

Result<std::string> DumpRulesSql(Engine* engine) {
  std::string out;
  for (const std::string& name : engine->rules().RuleNames()) {
    SOPR_ASSIGN_OR_RETURN(const Rule* rule, engine->rules().GetRule(name));
    out += rule->def().ToString() + ";\n";
  }
  for (const std::string& name : engine->rules().RuleNames()) {
    auto enabled = engine->rules().IsRuleEnabled(name);
    if (enabled.ok() && !enabled.value()) {
      out += "deactivate rule " + name + ";\n";
    }
  }
  std::vector<std::string> names = engine->rules().RuleNames();
  for (const std::string& higher : names) {
    for (const std::string& lower : names) {
      // Emit only DIRECT pairs? The partial order only exposes Higher();
      // emitting the transitive closure is semantically equivalent (it
      // induces the same partial order) and keeps the API small.
      if (engine->rules().priorities().Higher(higher, lower)) {
        out += "create rule priority " + higher + " before " + lower + ";\n";
      }
    }
  }
  return out;
}

Result<std::string> DumpDatabase(Engine* engine) {
  std::string out = "-- sopr dump\n";

  // 1. Schemas and indexes.
  SOPR_ASSIGN_OR_RETURN(std::string schema_sql, DumpSchemaSql(engine));
  out += schema_sql;

  // 2. Data, in handle order, chunked to keep statements manageable.
  constexpr size_t kRowsPerInsert = 256;
  for (const std::string& name : engine->db().catalog().TableNames()) {
    SOPR_ASSIGN_OR_RETURN(const Table* table, engine->db().GetTable(name));
    size_t emitted = 0;
    for (const auto& [handle, entry] : table->rows()) {
      (void)handle;
      const Row& row = entry.row;
      if (emitted % kRowsPerInsert == 0) {
        if (emitted > 0) out += ";\n";
        out += "insert into " + name + " values ";
      } else {
        out += ", ";
      }
      out += "(";
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) out += ", ";
        out += row.at(c).ToString();
      }
      out += ")";
      ++emitted;
    }
    if (emitted > 0) out += ";\n";
  }

  // 3. Rules, priorities, and activation state.
  SOPR_ASSIGN_OR_RETURN(std::string rules_sql, DumpRulesSql(engine));
  out += rules_sql;
  return out;
}

Status RestoreDatabase(Engine* engine, const std::string& dump) {
  // The dump is a sequence of `;`-terminated statements. Execute them one
  // at a time (the engine disallows mixing DDL and DML in one script, and
  // the dump interleaves them).
  SOPR_ASSIGN_OR_RETURN(std::vector<StmtPtr> stmts,
                        Parser::ParseScript(dump));
  for (StmtPtr& stmt : stmts) {
    SOPR_RETURN_NOT_OK(engine->Execute(stmt->ToString()));
  }
  return Status::OK();
}

}  // namespace sopr
