#ifndef SOPR_SERVER_SESSION_MANAGER_H_
#define SOPR_SERVER_SESSION_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/retry.h"
#include "server/admission.h"
#include "server/commit_scheduler.h"
#include "server/session.h"

namespace sopr {
namespace server {

/// The concurrent front-end (docs/CONCURRENCY.md): owns the shared
/// Engine, the commit scheduler in front of it, and N client sessions.
///
///   auto manager = SessionManager::Open(options).value();
///   Session* s = manager->CreateSession().value();
///   s->Execute("insert into emp values (...)");   // any thread
///
/// CreateSession/CloseSession are thread-safe; each returned Session is
/// a single-threaded connection handle. The manager must outlive its
/// sessions' use. Destroying the manager closes the engine (draining
/// staged group commits and releasing the WAL directory lock).
class SessionManager {
 public:
  /// Builds the engine via Engine::Open (recovery + WAL attach + wal-dir
  /// lock when options.wal_dir is set; plain in-memory engine otherwise).
  static Result<std::unique_ptr<SessionManager>> Open(
      RuleEngineOptions options);

  /// Wraps an already-opened engine (tests that build the parts by hand)
  /// and puts it in the server's one configuration: record-level write
  /// locking, so disjoint-row writer sessions overlap end-to-end, with
  /// snapshot reads over the engine's versioned storage. Recovery (if
  /// any) already ran inside Engine::Open and stamped the recovered rows
  /// at their commit LSNs, so the first pin reads the recovered state.
  explicit SessionManager(std::unique_ptr<Engine> engine)
      : engine_(std::move(engine)), scheduler_(engine_.get()) {
    engine_->EnableConcurrentWriters();
  }
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admits a new session. Fails (kResourceExhausted) beyond
  /// max_sessions with a structured message carrying the current/max
  /// counts and a "retry-after-ms=<n>" hint that escalates while the
  /// limit stays saturated and resets once a slot frees up.
  Result<Session*> CreateSession();
  /// Closes (destroys) a session by id. The caller must be done driving
  /// it; outstanding pointers to it dangle.
  Status CloseSession(uint64_t id);

  size_t num_sessions() const;
  void set_max_sessions(size_t n) { max_sessions_ = n; }
  size_t max_sessions() const { return max_sessions_; }

  /// Point-in-time view of the front end for operator tooling and tests
  /// (docs/OVERLOAD.md): session slots, per-session statement counters,
  /// and the writer-admission stats.
  struct SessionInfo {
    uint64_t id = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t statements = 0;
    size_t inflight_statements = 0;
    bool killed = false;
  };
  struct Snapshot {
    size_t num_sessions = 0;
    size_t max_sessions = 0;
    AdmissionStats admission;
    std::vector<SessionInfo> sessions;
  };
  Snapshot Inspect() const;

  Engine& engine() { return *engine_; }
  CommitScheduler& scheduler() { return scheduler_; }

 private:
  std::unique_ptr<Engine> engine_;
  CommitScheduler scheduler_;
  size_t max_sessions_ = 256;

  mutable std::mutex mu_;  // guards sessions_ / next_session_id_ / hint
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  /// Retry-after escalation for CreateSession refusals; jitter-free so
  /// the hints in error messages are deterministic.
  Backoff create_hint_{RetryPolicy{std::chrono::milliseconds(10),
                                   std::chrono::milliseconds(500), 2.0, 0.0,
                                   0}};
};

}  // namespace server
}  // namespace sopr

#endif  // SOPR_SERVER_SESSION_MANAGER_H_
