#include "common/failpoint.h"

#include <cstdlib>

#include "common/string_util.h"

namespace sopr {

namespace {

/// Every failpoint site compiled into the engine, grouped by layer. Keep
/// in sync with the SOPR_FAILPOINT uses and docs/FAILURE_SEMANTICS.md.
const char* const kSiteCatalog[] = {
    // Database mutation paths (database.cc). `pre` fires before any state
    // change; `post` fires after the mutation and its undo record exist.
    "storage.insert.pre",
    "storage.insert.post",
    "storage.delete.pre",
    "storage.delete.post",
    "storage.update.pre",
    "storage.update.post",
    // Heap/index split points (table.cc). `mid` fires between the heap
    // mutation and index maintenance; the table must locally revert.
    "table.insert.mid",
    "table.erase.mid",
    "table.replace.mid",
    // Undo-log append (undo_log.cc): simulates log-space exhaustion. The
    // database must revert the just-applied mutation it cannot log.
    "undo.append",
    // Rule engine (rule_engine.cc).
    "rules.block.pre",
    "rules.block.post",
    "rules.action.pre",
    "rules.action.post",
    "rules.deferred.dispatch",
    "rules.commit.pre",
    // Facade (engine.cc).
    "engine.execute.pre",
    "engine.ddl.pre",
    // Concurrent front-end (server/): `submit.pre` fires as a session's
    // transaction enters the commit scheduler (before writer admission);
    // `session.create` before a new session is admitted.
    "server.submit.pre",
    "server.session.create",
    // Record-level lock manager (storage/lock_manager.cc): `lock.acquire`
    // fires on entry to every table/record acquisition (an armed failure
    // aborts the statement cleanly — chaos uses it to seed lock-order
    // trouble); `lock.wait` (and the dynamic per-table "lock.wait.<t>")
    // fires when a request is about to block on a conflicting holder;
    // `lock.deadlock` fires as a victim aborts with kDeadlock.
    "lock.acquire",
    "lock.wait",
    "lock.deadlock",
    // `lock.wait.timeout` fires as a waiter gives up on a lock (deadline
    // or cancellation) — after its wait-for edges are removed, before the
    // kLockTimeout/kCancelled status propagates to the caller.
    "lock.wait.timeout",
    // Cancellation delivery (common/cancel.cc): fires at every
    // CheckCancel() point — rule-firing boundaries, scan batches,
    // cancellable sleeps. An armed failure models an asynchronous kill
    // arriving at exactly that check; the enclosing txn must abort to S0.
    "cancel.deliver",
    // Batch execution layer (query/executor.cc, src/exec/):
    // `exec.batch` fires at every batch boundary of the batch
    // pipeline (pushed filters, residual filters, DML predicate scans)
    // just before the boundary's cancellation check; `exec.hashjoin.build`
    // fires as a build/probe hash join is about to build its table. An
    // armed failure at either site aborts the statement mid-query; the
    // enclosing transaction must roll back to S0 (docs/EXECUTION.md).
    "exec.batch",
    "exec.hashjoin.build",
    // Writer admission control (server/admission.cc): fires as a writer
    // enters the admission queue, before any queueing decision. An armed
    // failure models an admission-layer shed (@code Overloaded in chaos);
    // the statement must fail without touching data.
    "server.admit.queue",
    // Write-ahead log (wal/wal_writer.cc). `wal.append` fires once per
    // record as a commit/DDL batch is encoded; `wal.write` before each
    // file write; `wal.write.mid` between the two halves of a batch write
    // (a @Crash here leaves a genuinely torn record on disk);
    // `wal.commit.pre` / `wal.commit.sync` bracket the group-commit
    // durability point; `wal.ddl.append` before a logical DDL record.
    "wal.append",
    "wal.write",
    "wal.write.mid",
    "wal.sync",
    "wal.commit.pre",
    "wal.commit.sync",
    "wal.ddl.append",
    // Group-commit pipeline (wal/wal_writer.cc): `lead` fires when a
    // thread takes cohort leadership (before the cohort's file write);
    // `sync` at the cohort durability point just before the leader's
    // single fsync. `wal.lock.acquire` fires before the wal-directory
    // LOCK file is flocked (wal/dir_lock.cc).
    "wal.group_commit.lead",
    "wal.group_commit.sync",
    "wal.lock.acquire",
    // Checkpointing (wal/checkpoint.cc): begin, snapshot write, snapshot
    // fsync, atomic install (rename), and post-install log truncation.
    "wal.checkpoint.begin",
    "wal.checkpoint.write",
    "wal.checkpoint.sync",
    "wal.checkpoint.install",
    "wal.checkpoint.truncate",
    // Recovery (wal/recovery.cc): startup, each replayed record/DDL, and
    // the torn-tail truncation step.
    "wal.recover.begin",
    "wal.recover.replay",
    "wal.recover.truncate",
    // Replication (src/replication/, docs/REPLICATION.md). `tail.read`
    // fires before each tailer read of the primary's wal.log (an armed
    // failure models a short read / EINTR storm and surfaces as
    // retryable kUnavailable); `tail.apply` before a replicated group or
    // DDL record is applied on the follower; `bootstrap.load` before the
    // follower replays the primary's checkpoint (models a checkpoint
    // read failing mid-rotation). The promote.* sites bracket failover:
    // `begin` on entry, `truncate` before the newly-owned log's torn
    // tail is cut, `attach` between truncation and opening the writer —
    // @Crash at any of them must leave a directory a plain Engine::Open
    // still recovers.
    "repl.tail.read",
    "repl.tail.apply",
    "repl.bootstrap.load",
    "repl.promote.begin",
    "repl.promote.truncate",
    "repl.promote.attach",
    // Network front-end (src/net/event_loop.cc, docs/NETWORK.md).
    // `net.accept` fires after a TCP accept succeeds but before the
    // connection is registered — an armed failure refuses it at the door
    // (clean close, engine untouched). `net.frame.decode` fires per
    // decoded frame; an armed failure is reported to the client as a
    // protocol error followed by an orderly close. `net.conn.write`
    // fires before each socket write; an armed failure models a dead
    // peer (EPIPE): the connection tears down and any in-flight
    // statement for it is cancelled.
    "net.accept",
    "net.frame.decode",
    "net.conn.write",
};

Status ParseMode(const std::string& text, FailpointRegistry::Trigger* out) {
  std::string mode = text;
  std::string arg;
  size_t colon = text.find(':');
  if (colon != std::string::npos) {
    mode = text.substr(0, colon);
    arg = text.substr(colon + 1);
  }
  if (mode == "off") {
    out->mode = FailpointRegistry::Mode::kOff;
  } else if (mode == "always") {
    out->mode = FailpointRegistry::Mode::kAlways;
  } else if (mode == "once") {
    out->mode = FailpointRegistry::Mode::kOnce;
  } else if (mode == "nth") {
    out->mode = FailpointRegistry::Mode::kNth;
  } else if (mode == "every") {
    out->mode = FailpointRegistry::Mode::kEveryK;
  } else {
    return Status::InvalidArgument("unknown failpoint mode: " + mode);
  }
  if (out->mode == FailpointRegistry::Mode::kNth ||
      out->mode == FailpointRegistry::Mode::kEveryK) {
    if (arg.empty()) {
      return Status::InvalidArgument("failpoint mode " + mode +
                                     " requires a numeric argument");
    }
    char* end = nullptr;
    unsigned long long n = std::strtoull(arg.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || n == 0) {
      return Status::InvalidArgument("bad failpoint argument: " + arg);
    }
    out->n = n;
  } else if (!arg.empty()) {
    return Status::InvalidArgument("failpoint mode " + mode +
                                   " takes no argument");
  }
  return Status::OK();
}

Status ParseCode(const std::string& name, FailpointRegistry::Trigger* out) {
  static const struct {
    const char* name;
    StatusCode code;
  } kCodes[] = {
      {"InjectedFault", StatusCode::kInjectedFault},
      {"ResourceExhausted", StatusCode::kResourceExhausted},
      {"Timeout", StatusCode::kTimeout},
      {"Cancelled", StatusCode::kCancelled},
      {"LockTimeout", StatusCode::kLockTimeout},
      {"Overloaded", StatusCode::kOverloaded},
      {"Deadlock", StatusCode::kDeadlock},
      {"ExecutionError", StatusCode::kExecutionError},
      {"DataLoss", StatusCode::kDataLoss},
      {"IoError", StatusCode::kIoError},
      {"Internal", StatusCode::kInternal},
  };
  if (name == "Crash") {
    out->crash = true;
    return Status::OK();
  }
  for (const auto& entry : kCodes) {
    if (name == entry.name) {
      out->code = entry.code;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown failpoint status code: " + name);
}

}  // namespace

FailpointRegistry& FailpointRegistry::Instance() {
  static FailpointRegistry* registry = new FailpointRegistry();
  return *registry;
}

const std::vector<std::string>& FailpointRegistry::KnownSites() {
  static const std::vector<std::string>* sites = [] {
    auto* v = new std::vector<std::string>();
    for (const char* site : kSiteCatalog) v->push_back(site);
    return v;
  }();
  return *sites;
}

void FailpointRegistry::Arm(const std::string& site, Trigger trigger) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmLocked(site, trigger);
}

void FailpointRegistry::ArmLocked(const std::string& site, Trigger trigger) {
  SiteState& state = sites_[site];
  state.trigger = trigger;
  state.hits = 0;
  state.fired_once = false;
  RecountArmedLocked();
}

void FailpointRegistry::RecountArmedLocked() {
  int armed = 0;
  for (const auto& [name, s] : sites_) {
    (void)name;
    // A blocking-only site must defeat the lock-free fast path too.
    if (s.trigger.mode != Mode::kOff || s.block) ++armed;
  }
  armed_count_.store(armed, std::memory_order_relaxed);
}

void FailpointRegistry::Disarm(const std::string& site) {
  Arm(site, Trigger{});
}

void FailpointRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
  // Any thread parked at a blocking site finds its site gone and
  // proceeds — cleanup can never deadlock a test.
  cv_.notify_all();
}

void FailpointRegistry::ArmBlocking(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  state.block = true;
  ++state.epoch;
  RecountArmedLocked();
}

void FailpointRegistry::WaitForBlocked(const std::string& site,
                                       uint64_t count) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    auto it = sites_.find(site);
    return it != sites_.end() && it->second.blocked >= count;
  });
}

void FailpointRegistry::Release(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return;
  it->second.block = false;
  ++it->second.epoch;
  RecountArmedLocked();
  cv_.notify_all();
}

Status FailpointRegistry::ParseSpec(
    const std::string& spec,
    std::vector<std::pair<std::string, Trigger>>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    std::string entry(Trim(spec.substr(pos, end - pos)));
    pos = end + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("bad failpoint spec (missing '='): " +
                                     entry);
    }
    std::string site(Trim(entry.substr(0, eq)));
    if (site.empty()) {
      return Status::InvalidArgument("bad failpoint spec (empty site): " +
                                     entry);
    }
    std::string rhs(Trim(entry.substr(eq + 1)));
    Trigger trigger;
    size_t at = rhs.find('@');
    if (at != std::string::npos) {
      SOPR_RETURN_NOT_OK(ParseCode(rhs.substr(at + 1), &trigger));
      rhs = rhs.substr(0, at);
    }
    SOPR_RETURN_NOT_OK(ParseMode(rhs, &trigger));
    out->emplace_back(std::move(site), trigger);
  }
  return Status::OK();
}

Status FailpointRegistry::ArmFromSpec(const std::string& spec) {
  std::vector<std::pair<std::string, Trigger>> entries;
  SOPR_RETURN_NOT_OK(ParseSpec(spec, &entries));
  for (const auto& [site, trigger] : entries) Arm(site, trigger);
  return Status::OK();
}

Status FailpointRegistry::Hit(const char* site) {
  // Environment arming happens exactly once, before the first site is
  // evaluated. The parse status is ignored *here* (a malformed spec must
  // not fail every instrumented operation) but recorded; the Engine
  // entry points surface it via EnsureEnvArmed().
  if (!env_checked_.load(std::memory_order_acquire)) {
    (void)EnsureEnvArmedSlow();
  }
  if (armed_count_.load(std::memory_order_relaxed) == 0) return Status::OK();
  if (suppress_depth() > 0) return Status::OK();
  return HitSlow(site);
}

Status FailpointRegistry::EnsureEnvArmed() {
  if (!env_checked_.load(std::memory_order_acquire)) {
    return EnsureEnvArmedSlow();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return env_status_;
}

Status FailpointRegistry::EnsureEnvArmedSlow() {
  std::string spec;
  const char* env = std::getenv("SOPR_FAILPOINTS");
  if (env != nullptr) spec = env;
  std::lock_guard<std::mutex> lock(mu_);
  if (env_checked_.load(std::memory_order_relaxed)) return env_status_;
  env_status_ = Status::OK();
  if (!spec.empty()) {
    std::vector<std::pair<std::string, Trigger>> entries;
    Status parsed = ParseSpec(spec, &entries);
    if (parsed.ok()) {
      for (const auto& [site, trigger] : entries) ArmLocked(site, trigger);
    } else {
      env_status_ =
          Status(parsed.code(), "SOPR_FAILPOINTS: " + parsed.message());
    }
  }
  env_checked_.store(true, std::memory_order_release);
  return env_status_;
}

void FailpointRegistry::ResetEnvForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  env_checked_.store(false, std::memory_order_release);
  env_status_ = Status::OK();
}

int& FailpointRegistry::suppress_depth() {
  thread_local int depth = 0;
  return depth;
}

Status FailpointRegistry::HitSlow(const char* site) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return Status::OK();
  if (it->second.block) {
    // Park until Release (epoch guards against a release + re-arm race)
    // or until the site disappears entirely (DisarmAll during cleanup).
    ++it->second.blocked;
    const uint64_t epoch = it->second.epoch;
    cv_.notify_all();  // wake WaitForBlocked callers
    const std::string key(site);  // iterators invalidate across wait
    cv_.wait(lock, [&] {
      auto s = sites_.find(key);
      return s == sites_.end() || !s->second.block || s->second.epoch != epoch;
    });
    it = sites_.find(key);
    if (it == sites_.end()) return Status::OK();
    if (it->second.blocked > 0) --it->second.blocked;
    // Fall through: a failure trigger armed on the same site still
    // applies after the block lifts.
  }
  SiteState& state = it->second;
  if (state.trigger.mode == Mode::kOff) return Status::OK();
  ++state.hits;
  bool fire = false;
  switch (state.trigger.mode) {
    case Mode::kOff:
      break;
    case Mode::kAlways:
      fire = true;
      break;
    case Mode::kOnce:
      fire = !state.fired_once;
      state.fired_once = true;
      break;
    case Mode::kNth:
      fire = (state.hits == state.trigger.n);
      break;
    case Mode::kEveryK:
      fire = (state.hits % state.trigger.n == 0);
      break;
  }
  if (!fire) return Status::OK();
  if (state.trigger.crash) {
    // Simulated power loss: die without flushing buffers, running atexit
    // handlers, or unwinding — the closest a live process gets to a kill.
    std::_Exit(kFailpointCrashExitCode);
  }
  return Status(state.trigger.code,
                "failpoint " + std::string(site) + " fired (hit " +
                    std::to_string(state.hits) + ")");
}

uint64_t FailpointRegistry::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

}  // namespace sopr
