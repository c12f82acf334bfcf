#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

namespace perfbench {
namespace {

constexpr int kLoadRowsPerScript = 2000;
constexpr int64_t kNull = std::numeric_limits<int64_t>::min();

std::string Str(int64_t v) { return std::to_string(v); }
std::string Lit(int64_t v) { return v == kNull ? "NULL" : Str(v); }

/// Splits value tuples into insert scripts of kLoadRowsPerScript rows.
void AppendInserts(const std::string& table,
                   const std::vector<std::string>& tuples,
                   std::vector<std::string>* out) {
  for (size_t i = 0; i < tuples.size(); i += kLoadRowsPerScript) {
    std::string sql = "insert into " + table + " values ";
    size_t end = std::min(tuples.size(), i + kLoadRowsPerScript);
    for (size_t j = i; j < end; ++j) {
      if (j > i) sql += ", ";
      sql += tuples[j];
    }
    out->push_back(std::move(sql));
  }
}

std::string InList(const std::vector<int64_t>& ids) {
  std::string s = "(";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) s += ", ";
    s += Str(ids[i]);
  }
  return s + ")";
}

/// Fails `check` unless `r` is ok with exactly `rows` rows.
bool Shape(const Result<QueryResult>& r, size_t rows, const std::string& what,
           Checker& check) {
  if (!r.ok()) {
    check.Fail(what + ": " + r.status().ToString());
    return false;
  }
  if (r.value().rows.size() != rows) {
    check.Fail(what + ": " + Str(static_cast<int64_t>(r.value().rows.size())) +
               " rows, expected " + Str(static_cast<int64_t>(rows)));
    return false;
  }
  return true;
}

void Expect(int64_t got, int64_t want, const std::string& what,
            Checker& check) {
  if (got != want) {
    check.Fail(what + ": got " + Lit(got) + ", expected " + Lit(want));
  }
}

/// The reader-visible states of one writer's sequence of writes, as one
/// number each: state j is what the database holds after the j-th write
/// (0 = the start state). The writer appends a write's state before
/// sending it and publishes it after the reply; a snapshot read may see
/// any state from the one published before its send to the one the write
/// in flight at its reply leads to, and nothing in between.
class WriteStates {
 public:
  /// Sets state 0; called once, before any write.
  void Start(int64_t state) { states_ = {state}; }

  /// The newest appended state; writer thread only.
  int64_t last() {
    std::lock_guard<std::mutex> lock(mu_);
    return states_.back();
  }
  void Append(int64_t state) {
    std::lock_guard<std::mutex> lock(mu_);
    states_.push_back(state);
  }
  /// Publishes the newest state, first setting it to `state` (the state
  /// before it, if the write was rolled back).
  void Publish(int64_t state) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      states_.back() = state;
    }
    published_.fetch_add(1);
  }
  int64_t published() const { return published_.load(); }

  /// Fails `check` unless `value`, read between `before` = published()
  /// at the send and `after` = published() at the reply, is a state the
  /// read may see.
  void CheckRead(int64_t before, int64_t after, int64_t value,
                 const std::string& what, Checker& check) {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t last =
        std::min<int64_t>(after + 1, static_cast<int64_t>(states_.size()) - 1);
    for (int64_t j = before; j <= last; ++j) {
      if (states_[j] == value) return;
    }
    check.Fail(what + " " + Lit(value) + " matches no whole state between writes " +
               Str(before) + " and " + Str(last));
  }

 private:
  std::mutex mu_;
  std::vector<int64_t> states_;
  std::atomic<int64_t> published_{0};
};

// --- wire_oltp -----------------------------------------------------------

/// Two-row transfers over an indexed 100k-row account table, audited by
/// one rule; a closed-loop reader sends indexed point selects.
class WireOltp : public Workload {
 public:
  static constexpr int kRows = 100000;
  static constexpr int kWritesPerRound = 100;
  static constexpr int kReadsPerRound = 100;

  explicit WireOltp(uint64_t seed)
      : writer_rng_{Rng(seed, 1), Rng(seed, 2)},
        reader_rng_(seed, 3),
        sent_minus_(kRows),
        sent_plus_(kRows),
        done_minus_(kRows),
        done_plus_(kRows) {
    Rng rng(seed, 0);
    init_.resize(kRows);
    for (int64_t& bal : init_) {
      bal = rng.Range(0, 10000);
      init_sum_ += bal;
    }
  }

  int writers() const override { return 2; }
  int writes_per_round() const override { return kWritesPerRound; }
  int nominal_writes_per_s() const override { return 800; }
  int cpus() const override { return 1; }
  int rules_defined() const override { return 1; }

  std::vector<std::string> SetupScripts() const override {
    std::vector<std::string> s = {
        "create table acct (id int, bal int)",
        "create index on acct (id)",
        "create table audit (id int, delta int)",
        "create rule audit_rule when updated acct.bal "
        "then insert into audit (select n.id, n.bal - o.bal "
        "from new updated acct.bal n, old updated acct.bal o "
        "where n.id = o.id)"};
    std::vector<std::string> tuples;
    for (int k = 0; k < kRows; ++k) {
      tuples.push_back("(" + Str(k) + ", " + Str(init_[k]) + ")");
    }
    AppendInserts("acct", tuples, &s);
    return s;
  }

  void WriterRound(int w, Conn& conn, Checker&) override {
    Rng& rng = writer_rng_[w];
    for (int i = 0; i < kWritesPerRound; ++i) {
      int64_t from = rng.Range(0, kRows - 1);
      int64_t to = rng.Range(0, kRows - 2);
      if (to >= from) ++to;
      std::string debit =
          "update acct set bal = bal - 1 where id = " + Str(from);
      std::string credit = "update acct set bal = bal + 1 where id = " + Str(to);
      // Ascending key order: two writers can never wait on each other
      // in a cycle.
      std::string sql =
          from < to ? debit + "; " + credit : credit + "; " + debit;
      ++sent_minus_[from];
      ++sent_plus_[to];
      if (!conn.Write(sql).ok()) continue;  // rolled back; counted failed
      ++done_minus_[from];
      ++done_plus_[to];
      ++committed_;
    }
  }

  void ReaderRound(Conn& conn, Checker& check) override {
    for (int i = 0; i < kReadsPerRound; ++i) {
      int64_t k = reader_rng_.Range(0, kRows - 1);
      // Transfers confirmed before the send are surely visible; those
      // sent before the reply may be. The balance must lie in between.
      int64_t plus_done = done_plus_[k];
      int64_t minus_done = done_minus_[k];
      auto r = conn.Read("select bal from acct where id = " + Str(k));
      int64_t plus_sent = sent_plus_[k];
      int64_t minus_sent = sent_minus_[k];
      if (!r.ok()) continue;
      if (!Shape(r, 1, "point read of id " + Str(k), check)) continue;
      int64_t bal = CellInt(r.value(), 0, 0, kNull);
      int64_t lo = init_[k] + plus_done - minus_sent;
      int64_t hi = init_[k] + plus_sent - minus_done;
      if (bal < lo || bal > hi) {
        check.Fail("point read of id " + Str(k) + " saw " + Lit(bal) +
                   ", model allows [" + Str(lo) + ", " + Str(hi) + "]");
      }
    }
  }

  void FinalCheck(Conn& conn, Checker& check) override {
    auto r = conn.CheckQuery("select id, bal from acct");
    if (Shape(r, kRows, "final balances", check)) {
      std::vector<bool> seen(kRows, false);
      for (size_t i = 0; i < r.value().rows.size(); ++i) {
        int64_t id = CellInt(r.value(), i, 0, -1);
        if (id < 0 || id >= kRows || seen[id]) {
          check.Fail("final balances: bad or repeated id " + Lit(id));
          return;
        }
        seen[id] = true;
        Expect(CellInt(r.value(), i, 1, kNull),
               init_[id] + done_plus_[id] - done_minus_[id],
               "final balance of id " + Str(id), check);
      }
    }
    auto sum = conn.CheckQuery("select sum(bal) from acct");
    if (Shape(sum, 1, "sum(bal)", check)) {
      Expect(CellInt(sum.value(), 0, 0, kNull), init_sum_, "sum(bal)", check);
    }
    auto audit = conn.CheckQuery("select count(*), sum(delta) from audit");
    if (Shape(audit, 1, "audit", check)) {
      Expect(CellInt(audit.value(), 0, 0), 2 * committed_.load(), "audit rows",
             check);
      Expect(CellInt(audit.value(), 0, 1, 0), 0, "audit sum(delta)", check);
    }
  }

 private:
  Rng writer_rng_[2];
  Rng reader_rng_;
  std::vector<int64_t> init_;
  int64_t init_sum_ = 0;
  // Per key: transfers sent / confirmed that debit (minus) or credit
  // (plus) it. Writers bump them around each round trip; the reader
  // brackets its read with them.
  std::vector<std::atomic<int64_t>> sent_minus_, sent_plus_;
  std::vector<std::atomic<int64_t>> done_minus_, done_plus_;
  std::atomic<int64_t> committed_{0};
};

// --- rule_cascade --------------------------------------------------------

/// The paper's Examples 4.1, 4.2/4.3 and 3.2 over a generated manager
/// hierarchy: each step deletes two managers (with a salary block, as in
/// Example 4.3) and then restores both subtrees in one transaction.
class RuleCascade : public Workload {
 public:
  // CEO, 6 VPs, 6 managers per VP, 10 staff per manager: 403 employees
  // in 43 departments. The shape is fixed so that every seed costs the
  // same; seeds pick the salaries, deleted managers and raises.
  static constexpr int kFanout[] = {6, 6, 10};
  static constexpr int kLevels = 4;
  static constexpr int kRootLevel = 2;
  static constexpr int kStepsPerRound = 2;
  static constexpr int kReadsPerRound = 20;
  static constexpr int kRaised = 4;
  static constexpr int kIdleTables = 8;
  static constexpr int kIdleRulesPerTable = 8;

  explicit RuleCascade(uint64_t seed) : writer_rng_(seed, 1) {
    Rng rng(seed, 0);
    emps_.push_back(Emp{});
    emps_[0].no = 1000;
    emps_[0].dept_no = 0;
    emps_[0].level = 0;
    std::vector<int> frontier = {0};
    for (int level = 1; level < kLevels; ++level) {
      std::vector<int> next;
      for (int m : frontier) {
        for (int j = 0; j < kFanout[level - 1]; ++j) {
          Emp e;
          e.no = 1000 + static_cast<int64_t>(emps_.size());
          e.dept_no = emps_[m].no;
          e.level = level;
          e.anchor = level == kRootLevel ? static_cast<int>(emps_.size())
                                         : emps_[m].anchor;
          emps_[m].reports.push_back(static_cast<int>(emps_.size()));
          next.push_back(static_cast<int>(emps_.size()));
          emps_.push_back(std::move(e));
        }
      }
      frontier = std::move(next);
    }
    for (size_t i = 0; i < emps_.size(); ++i) {
      Emp& e = emps_[i];
      e.salary = rng.Range(20, 79) * 1000;
      if (e.level == kRootLevel) roots_.push_back(static_cast<int>(i));
      if (e.reports.empty()) leaves_.push_back(static_cast<int>(i));
      start_.emps += 1;
      start_.salary += e.salary;
      start_.emp_nos += e.no;
      start_.dept_nos += e.dept_no;
      if (!e.reports.empty()) {
        start_.depts += 1;
        start_.mgr_nos += e.no;
      }
    }
    emp_counts_.Start(start_.emps);
  }

  int writers() const override { return 1; }
  int writes_per_round() const override { return 3 * kStepsPerRound; }
  int nominal_writes_per_s() const override { return 8; }
  int cpus() const override { return 2; }
  int rules_defined() const override {
    return 3 + kIdleTables * kIdleRulesPerTable;
  }

  std::vector<std::string> SetupScripts() const override {
    std::vector<std::string> s = {
        "create table emp (name string, emp_no int, salary double, "
        "dept_no int)",
        "create table dept (dept_no int, mgr_no int)",
        "create table budget (id int, spent double)",
        "create index on emp (emp_no)",
        "create index on emp (dept_no)",
        "create index on dept (mgr_no)",
        // Example 3.2's condition; the action books the raise so a
        // restore can return the database to its start state.
        "create rule salary_cut when updated emp.salary "
        "if (select sum(salary) from new updated emp.salary) > "
        "   (select sum(salary) from old updated emp.salary) "
        "then update budget set spent = spent "
        "  + (select sum(salary) from new updated emp.salary) "
        "  - (select sum(salary) from old updated emp.salary)",
        // Example 4.2.
        "create rule salary_guard when updated emp.salary "
        "if (select avg(salary) from new updated emp.salary) > 50K "
        "then delete from emp "
        "  where emp_no in (select emp_no from new updated emp.salary) "
        "    and salary > 80K",
        // Example 4.1.
        "create rule mgr_cascade when deleted from emp "
        "then delete from emp where dept_no in (select dept_no from dept "
        "  where mgr_no in (select emp_no from deleted emp)); "
        "  delete from dept "
        "  where mgr_no in (select emp_no from deleted emp)",
        // Example 4.3's ordering, with the salary rule first.
        "create rule priority salary_cut before salary_guard",
        "create rule priority salary_guard before mgr_cascade"};
    for (int t = 0; t < kIdleTables; ++t) {
      std::string table = "idle" + Str(t);
      s.push_back("create table " + table + " (x int, y int)");
      for (int r = 0; r < kIdleRulesPerTable; ++r) {
        s.push_back("create rule " + table + "_" + Str(r) +
                    " when inserted into " + table +
                    " if (select count(*) from inserted " + table + ") > " +
                    Str(r) + " then delete from " + table +
                    " where x = " + Str(r));
      }
    }
    std::vector<std::string> emps, depts;
    for (const Emp& e : emps_) {
      emps.push_back(EmpTuple(e));
      if (!e.reports.empty()) depts.push_back(DeptTuple(e));
    }
    AppendInserts("emp", emps, &s);
    AppendInserts("dept", depts, &s);
    s.push_back("insert into budget values (1, 0)");
    return s;
  }

  void WriterRound(int, Conn& conn, Checker& check) override {
    for (int step = 0; step < kStepsPerRound && check.ok(); ++step) {
      Step(conn, check);
    }
  }

  void ReaderRound(Conn& conn, Checker& check) override {
    for (int i = 0; i < kReadsPerRound; ++i) {
      int64_t before = emp_counts_.published();
      // Everyone but the CEO works in a department that still exists.
      auto r = conn.Read(
          "select count(*) from emp e, dept d where e.dept_no = d.dept_no");
      int64_t after = emp_counts_.published();
      if (!r.ok() || !Shape(r, 1, "org count", check)) continue;
      // Never a partly cascaded state.
      emp_counts_.CheckRead(before, after, CellInt(r.value(), 0, 0, kNull) + 1,
                            "snapshot org count", check);
    }
  }

  void FinalCheck(Conn& conn, Checker& check) override {
    CheckStartState(conn, check, "final state");
  }

 private:
  struct Emp {
    int64_t no = 0;
    int64_t salary = 0;
    int64_t dept_no = 0;
    int level = 0;
    int anchor = -1;  // ancestor at kRootLevel (or itself), -1 above
    std::vector<int> reports;
  };
  struct Aggregates {
    int64_t emps = 0, salary = 0, emp_nos = 0, dept_nos = 0;
    int64_t depts = 0, mgr_nos = 0;
  };
  /// What one delete transaction must remove and leave behind.
  struct Deletion {
    std::vector<int> removed;        // emps: the subtree plus guard victims
    std::vector<int> removed_depts;  // managers whose dept row goes
    std::vector<int> survivors;      // raised emps the guard kept
    std::vector<int64_t> raised_to;  // their new salaries
    int64_t raise_total = 0;
  };

  std::string EmpTuple(const Emp& e) const {
    return "('e" + Str(e.no) + "', " + Str(e.no) + ", " + Str(e.salary) +
           ", " + Str(e.dept_no) + ")";
  }
  static std::string DeptTuple(const Emp& e) {
    return "(" + Str(e.no) + ", " + Str(e.no) + ")";
  }

  /// Example 4.1's fixpoint, computed by the benchmark with its own BFS.
  void Subtree(int root, Deletion* d) const {
    std::vector<int> queue = {root};
    for (size_t i = 0; i < queue.size(); ++i) {
      const Emp& e = emps_[queue[i]];
      d->removed.push_back(queue[i]);
      if (!e.reports.empty()) d->removed_depts.push_back(queue[i]);
      queue.insert(queue.end(), e.reports.begin(), e.reports.end());
    }
  }

  /// Picks `kRaised` leaves outside the anchors in `avoid` and not in
  /// `taken`.
  std::vector<int> PickLeaves(const std::vector<int>& avoid,
                              std::vector<int>* taken) {
    std::vector<int> out;
    while (static_cast<int>(out.size()) < kRaised) {
      int leaf = leaves_[writer_rng_.Range(
          0, static_cast<int64_t>(leaves_.size()) - 1)];
      int anchor = emps_[leaf].anchor;
      if (std::find(avoid.begin(), avoid.end(), anchor) != avoid.end() ||
          std::find(taken->begin(), taken->end(), leaf) != taken->end()) {
        continue;
      }
      taken->push_back(leaf);
      out.push_back(leaf);
    }
    return out;
  }

  /// One timed write with the reader-visible state it leads to.
  bool TimedWrite(Conn& conn, const std::string& sql, int64_t emp_count,
                  Checker& check) {
    emp_counts_.Append(emp_count);
    Status st = conn.Write(sql);
    if (!st.ok()) {
      // The restore that follows would no longer match the database.
      check.Fail("rule_cascade write failed: " + st.ToString());
      return false;
    }
    emp_counts_.Publish(emp_count);
    return true;
  }

  /// Delete `root` and raise `raised` in one block (Example 4.3's shape)
  /// and predict the outcome: salary_cut books the raises, salary_guard
  /// deletes raised employees above 80K when the raised average exceeds
  /// 50K, and mgr_cascade removes every deleted manager's subtree.
  Deletion PlanDelete(int root, const std::vector<int>& raised,
                      std::string* sql) {
    Deletion d;
    Subtree(root, &d);
    *sql = "delete from emp where emp_no = " + Str(emps_[root].no);
    int64_t new_sum = 0;
    std::vector<int64_t> new_salary;
    for (int u : raised) {
      int64_t raise = writer_rng_.Range(1, 40) * 1000;
      *sql += "; update emp set salary = salary + " + Str(raise) +
              " where emp_no = " + Str(emps_[u].no);
      d.raise_total += raise;
      new_salary.push_back(emps_[u].salary + raise);
      new_sum += new_salary.back();
    }
    bool guard_fires = new_sum > 50000 * static_cast<int64_t>(raised.size());
    for (size_t i = 0; i < raised.size(); ++i) {
      if (guard_fires && new_salary[i] > 80000) {
        d.removed.push_back(raised[i]);  // a leaf: no further cascade
      } else {
        d.survivors.push_back(raised[i]);
        d.raised_to.push_back(new_salary[i]);
      }
    }
    return d;
  }

  void CheckDeletion(Conn& conn, const Deletion& d, int64_t emp_count,
                     int64_t dept_count, int64_t spent, Checker& check) {
    std::vector<int64_t> removed, depts, survivors;
    for (int i : d.removed) removed.push_back(emps_[i].no);
    for (int i : d.removed_depts) depts.push_back(emps_[i].no);
    for (int i : d.survivors) survivors.push_back(emps_[i].no);
    int64_t survivor_sum = kNull;
    for (int64_t s : d.raised_to) {
      survivor_sum = (survivor_sum == kNull ? 0 : survivor_sum) + s;
    }
    std::string sql =
        "select (select count(*) from emp), "
        "(select count(*) from emp where emp_no in " +
        InList(removed) + "), (select count(*) from dept), " +
        "(select count(*) from dept where dept_no in " + InList(depts) +
        "), (select sum(salary) from emp where emp_no in " +
        (survivors.empty() ? std::string("(-1)") : InList(survivors)) +
        "), spent from budget";
    auto r = conn.CheckQuery(sql);
    if (!Shape(r, 1, "after delete", check)) return;
    Expect(CellInt(r.value(), 0, 0), emp_count, "emp rows after delete", check);
    Expect(CellInt(r.value(), 0, 1), 0, "removed emps still present", check);
    Expect(CellInt(r.value(), 0, 2), dept_count, "dept rows after delete", check);
    Expect(CellInt(r.value(), 0, 3), 0, "removed depts still present", check);
    Expect(CellInt(r.value(), 0, 4, kNull), survivor_sum,
           "raised salaries kept by salary_guard", check);
    Expect(CellInt(r.value(), 0, 5), spent, "salary_cut's booked raises", check);
  }

  void CheckStartState(Conn& conn, Checker& check, const std::string& what) {
    auto r = conn.CheckQuery(
        "select (select count(*) from emp), (select sum(salary) from emp), "
        "(select sum(emp_no) from emp), (select sum(dept_no) from emp), "
        "(select count(*) from dept), (select sum(mgr_no) from dept), "
        "spent from budget");
    if (!Shape(r, 1, what, check)) return;
    Expect(CellInt(r.value(), 0, 0), start_.emps, what + ": emp rows", check);
    Expect(CellInt(r.value(), 0, 1), start_.salary, what + ": sum(salary)", check);
    Expect(CellInt(r.value(), 0, 2), start_.emp_nos, what + ": sum(emp_no)", check);
    Expect(CellInt(r.value(), 0, 3), start_.dept_nos, what + ": sum(dept_no)",
           check);
    Expect(CellInt(r.value(), 0, 4), start_.depts, what + ": dept rows", check);
    Expect(CellInt(r.value(), 0, 5), start_.mgr_nos, what + ": sum(mgr_no)", check);
    Expect(CellInt(r.value(), 0, 6), 0, what + ": budget", check);
  }

  void Step(Conn& conn, Checker& check) {
    int a = roots_[writer_rng_.Range(0, static_cast<int64_t>(roots_.size()) -
                                           1)];
    int b = a;
    while (b == a) {
      b = roots_[writer_rng_.Range(0,
                                   static_cast<int64_t>(roots_.size()) - 1)];
    }
    std::vector<int> taken;
    std::vector<int> raised_a = PickLeaves({a, b}, &taken);
    std::vector<int> raised_b = PickLeaves({a, b}, &taken);

    std::string sql_a, sql_b;
    Deletion da = PlanDelete(a, raised_a, &sql_a);
    Deletion db = PlanDelete(b, raised_b, &sql_b);

    int64_t emps = start_.emps - static_cast<int64_t>(da.removed.size());
    int64_t depts =
        start_.depts - static_cast<int64_t>(da.removed_depts.size());
    if (!TimedWrite(conn, sql_a, emps, check)) return;
    CheckDeletion(conn, da, emps, depts, da.raise_total, check);

    emps -= static_cast<int64_t>(db.removed.size());
    depts -= static_cast<int64_t>(db.removed_depts.size());
    if (!TimedWrite(conn, sql_b, emps, check)) return;
    CheckDeletion(conn, db, emps, depts, da.raise_total + db.raise_total,
                  check);

    // Restore both subtrees, the guard's victims and the raised
    // salaries, and reset the budget.
    std::vector<std::string> emp_rows, dept_rows;
    std::string updates;
    for (const Deletion* d : {&da, &db}) {
      for (int i : d->removed) emp_rows.push_back(EmpTuple(emps_[i]));
      for (int i : d->removed_depts) dept_rows.push_back(DeptTuple(emps_[i]));
      for (int i : d->survivors) {
        updates += "; update emp set salary = " + Str(emps_[i].salary) +
                   " where emp_no = " + Str(emps_[i].no);
      }
    }
    std::vector<std::string> restore;
    AppendInserts("emp", emp_rows, &restore);
    AppendInserts("dept", dept_rows, &restore);
    std::string sql;
    for (const std::string& part : restore) sql += part + "; ";
    sql += "update budget set spent = 0" + updates;
    if (!TimedWrite(conn, sql, start_.emps, check)) return;
    CheckStartState(conn, check, "after restore");
  }

  std::vector<Emp> emps_;
  std::vector<int> roots_;   // managers at kRootLevel: the deleted roots
  std::vector<int> leaves_;  // raise candidates
  Aggregates start_;
  Rng writer_rng_;
  WriteStates emp_counts_;  // emp rows after each write
};

// --- set_bulk ------------------------------------------------------------

/// Slab updates over a NULL-heavy 20k-row table with string keys: a
/// rule joins each transition set with a 6k-row base table, another
/// tests the set's average; the reader runs arithmetic-dense scans.
class SetBulk : public Workload {
 public:
  static constexpr int kRows = 20000;
  static constexpr int kSlabsPerRound = 8;
  static constexpr int kMinSlab = 400;
  static constexpr int kMaxSlab = 1000;

  explicit SetBulk(uint64_t seed) : writer_rng_(seed, 1) {
    Rng rng(seed, 0);
    int64_t sum_a = 0;
    std::vector<int64_t> perm(kRows);
    for (int i = 0; i < kRows; ++i) perm[i] = i;
    for (int i = kRows - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Range(0, i)]);
    }
    rows_.resize(kRows);
    for (int i = 0; i < kRows; ++i) {
      Row& row = rows_[i];
      char key[32];
      std::snprintf(key, sizeof(key), "k%07lld",
                    static_cast<long long>(perm[i]));
      row.k = key;
      row.a = rng.Chance(20) ? kNull : rng.Range(-100, 100);
      row.b = rng.Chance(20) ? kNull : rng.Range(-100, 100);
      row.x = rng.Chance(40) ? kNull : rng.Range(0, 100);
      row.y = rng.Chance(35) ? kNull : rng.Range(0, 100);
      row.z_milli = rng.Chance(30) ? kNull : rng.Range(0, 999);
      row.region = rng.Chance(30) ? rng.Range(1, 50) : 0;
      if (row.a != kNull && row.b != kNull) sum_ab_ += row.a + row.b;
      if (row.a != kNull) sum_a += row.a;
      // x * 3 + y > 150 and (z is null or z < 0.5)
      if (row.x != kNull && row.y != kNull && row.x * 3 + row.y > 150 &&
          (row.z_milli == kNull || row.z_milli < 500)) {
        ++filter_count_;
      }
      // x is not null and (y > 40 or x - y < -20)
      if (row.x != kNull && row.y != kNull &&
          (row.y > 40 || row.x - row.y < -20)) {
        ++scan_count_;
        scan_sum_ += row.x * 2 - row.y;
      }
    }
    sums_a_.Start(sum_a);
  }

  int writers() const override { return 1; }
  int writes_per_round() const override { return kSlabsPerRound; }
  int nominal_writes_per_s() const override { return 20; }
  int cpus() const override { return 2; }
  int rules_defined() const override { return 2; }

  std::vector<std::string> SetupScripts() const override {
    std::vector<std::string> s = {
        "create table item (k string, pos int, a int, b int, x int, y int, "
        "z double, ver int)",
        "create table ref (k string, region int)",
        "create table hits (k string, ver int, region int, a int)",
        "create table slab_log (ver int, n int, sa int)",
        "create rule ref_join when updated item.a "
        "then insert into hits (select n.k, n.ver, r.region, n.a "
        "from new updated item.a n, ref r where n.k = r.k)",
        "create rule slab_avg when updated item.a "
        "if (select avg(a) from new updated item.a) > 0 "
        "then insert into slab_log "
        "(select max(ver), count(a), sum(a) from new updated item.a)"};
    std::vector<std::string> items, refs;
    for (int i = 0; i < kRows; ++i) {
      const Row& row = rows_[i];
      char z[32] = "NULL";
      if (row.z_milli != kNull) {
        std::snprintf(z, sizeof(z), "0.%03lld",
                      static_cast<long long>(row.z_milli));
      }
      items.push_back("('" + row.k + "', " + Str(i) + ", " + Lit(row.a) +
                      ", " + Lit(row.b) + ", " + Lit(row.x) + ", " +
                      Lit(row.y) + ", " + z + ", 0)");
      if (row.region != 0) {
        refs.push_back("('" + row.k + "', " + Str(row.region) + ")");
      }
    }
    AppendInserts("item", items, &s);
    AppendInserts("ref", refs, &s);
    return s;
  }

  void WriterRound(int, Conn& conn, Checker& check) override {
    // ver -> (hits rows, sum(region), sum(a), count(a)) and
    // ver -> (count(a), sum(a)) for the slabs whose average held.
    std::map<int64_t, std::tuple<int64_t, int64_t, int64_t, int64_t>> hits;
    std::map<int64_t, std::pair<int64_t, int64_t>> logged;
    for (int i = 0; i < kSlabsPerRound; ++i) {
      int64_t len = writer_rng_.Range(kMinSlab, kMaxSlab);
      int64_t start = writer_rng_.Range(0, kRows - len);
      int64_t delta = writer_rng_.Range(1, 9);
      bool to_b = writer_rng_.Chance(50);
      int64_t ver = ++ver_;
      // Moves `delta` from a to b (or back); sum(a + b) never changes.
      std::string move = to_b ? "a = a - " + Str(delta) + ", b = b + " +
                                    Str(delta)
                              : "a = a + " + Str(delta) + ", b = b - " +
                                    Str(delta);
      std::string sql = "update item set " + move + ", ver = " + Str(ver) +
                        " where pos >= " + Str(start) +
                        " and pos < " + Str(start + len);
      int64_t signed_delta = to_b ? -delta : delta;
      int64_t n = 0;
      for (int64_t p = start; p < start + len; ++p) n += rows_[p].a != kNull;
      const int64_t sum_a = sums_a_.last();
      sums_a_.Append(sum_a + n * signed_delta);
      if (!conn.Write(sql).ok()) {
        sums_a_.Publish(sum_a);
        continue;  // rolled back; counted failed
      }
      int64_t sum = 0, hit_rows = 0, hit_region = 0, hit_a = 0, hit_n = 0;
      for (int64_t p = start; p < start + len; ++p) {
        Row& row = rows_[p];
        if (row.a != kNull) row.a += signed_delta;
        if (row.b != kNull) row.b -= signed_delta;
        if (row.a != kNull) sum += row.a;
        if (row.region != 0) {
          ++hit_rows;
          hit_region += row.region;
          if (row.a != kNull) {
            ++hit_n;
            hit_a += row.a;
          }
        }
      }
      if (hit_rows > 0) {
        hits[ver] = {hit_rows, hit_region, hit_n ? hit_a : kNull, hit_n};
      }
      if (n > 0 && sum > 0) logged[ver] = {n, sum};
      sums_a_.Publish(sum_a + n * signed_delta);
    }
    CheckRuleOutputs(conn, hits, logged, check);
    conn.CleanupWrite("delete from hits; delete from slab_log");
  }

  void ReaderRound(Conn& conn, Checker& check) override {
    // Every slab update keeps sum(a + b); sum(a) tells the whole states
    // apart, so a read that sees part of a slab update fails.
    int64_t before = sums_a_.published();
    auto r = conn.Read("select count(*), sum(a + b), sum(a) from item");
    int64_t after = sums_a_.published();
    if (r.ok() && Shape(r, 1, "sum(a + b)", check)) {
      Expect(CellInt(r.value(), 0, 0), kRows, "item rows", check);
      Expect(CellInt(r.value(), 0, 1, kNull), sum_ab_, "snapshot sum(a + b)", check);
      sums_a_.CheckRead(before, after, CellInt(r.value(), 0, 2, kNull),
                        "snapshot sum(a)", check);
    }
    r = conn.Read(
        "select count(*) from item "
        "where x * 3 + y > 150 and (z is null or z < 0.5)");
    if (r.ok() && Shape(r, 1, "filter count", check)) {
      Expect(CellInt(r.value(), 0, 0), filter_count_, "filter count", check);
    }
    r = conn.Read(
        "select count(*), sum(x * 2 - y) from item "
        "where x is not null and (y > 40 or x - y < -20)");
    if (r.ok() && Shape(r, 1, "aggregate scan", check)) {
      Expect(CellInt(r.value(), 0, 0), scan_count_, "aggregate scan count", check);
      Expect(CellInt(r.value(), 0, 1, kNull), scan_sum_, "aggregate scan sum", check);
    }
  }

  void FinalCheck(Conn& conn, Checker& check) override {
    auto r = conn.CheckQuery("select pos, a, b from item");
    if (!Shape(r, kRows, "final item state", check)) return;
    for (size_t i = 0; i < r.value().rows.size(); ++i) {
      int64_t pos = CellInt(r.value(), i, 0, -1);
      if (pos < 0 || pos >= kRows) {
        check.Fail("final item state: bad pos " + Lit(pos));
        return;
      }
      Expect(CellInt(r.value(), i, 1, kNull), rows_[pos].a,
             "final a at pos " + Str(pos), check);
      Expect(CellInt(r.value(), i, 2, kNull), rows_[pos].b,
             "final b at pos " + Str(pos), check);
    }
  }

 private:
  struct Row {
    std::string k;
    int64_t a, b, x, y, z_milli;
    int64_t region;  // 0 = not in ref
  };

  void CheckRuleOutputs(
      Conn& conn,
      const std::map<int64_t, std::tuple<int64_t, int64_t, int64_t, int64_t>>&
          hits,
      const std::map<int64_t, std::pair<int64_t, int64_t>>& logged,
      Checker& check) {
    auto r = conn.CheckQuery(
        "select ver, count(*), sum(region), sum(a), count(a) from hits "
        "group by ver");
    if (Shape(r, hits.size(), "ref_join output", check)) {
      for (size_t i = 0; i < r.value().rows.size(); ++i) {
        int64_t ver = CellInt(r.value(), i, 0);
        auto it = hits.find(ver);
        if (it == hits.end()) {
          check.Fail("ref_join output: unexpected ver " + Str(ver));
          continue;
        }
        auto [rows, region, a, n] = it->second;
        std::string what = "ref_join output of ver " + Str(ver);
        Expect(CellInt(r.value(), i, 1), rows, what + " rows", check);
        Expect(CellInt(r.value(), i, 2), region, what + " sum(region)", check);
        Expect(CellInt(r.value(), i, 3, kNull), a, what + " sum(a)", check);
        Expect(CellInt(r.value(), i, 4), n, what + " count(a)", check);
      }
    }
    auto log = conn.CheckQuery("select ver, n, sa from slab_log");
    if (Shape(log, logged.size(), "slab_avg output", check)) {
      for (size_t i = 0; i < log.value().rows.size(); ++i) {
        int64_t ver = CellInt(log.value(), i, 0);
        auto it = logged.find(ver);
        if (it == logged.end()) {
          check.Fail("slab_avg fired for ver " + Str(ver) +
                     " whose average the model puts at or below 0");
          continue;
        }
        Expect(CellInt(log.value(), i, 1), it->second.first,
               "slab_avg count(a) of ver " + Str(ver), check);
        Expect(CellInt(log.value(), i, 2), it->second.second,
               "slab_avg sum(a) of ver " + Str(ver), check);
      }
    }
  }

  std::vector<Row> rows_;
  int64_t sum_ab_ = 0;
  int64_t filter_count_ = 0;
  int64_t scan_count_ = 0;
  int64_t scan_sum_ = 0;
  Rng writer_rng_;
  int64_t ver_ = 0;
  WriteStates sums_a_;  // sum(a) after each write
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "wire_oltp") return std::make_unique<WireOltp>(seed);
  if (name == "rule_cascade") return std::make_unique<RuleCascade>(seed);
  if (name == "set_bulk") return std::make_unique<SetBulk>(seed);
  return nullptr;
}

}  // namespace perfbench
