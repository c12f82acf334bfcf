#include "server/session_manager.h"

#include <algorithm>

#include "common/failpoint.h"

namespace sopr {
namespace server {

Result<std::unique_ptr<SessionManager>> SessionManager::Open(
    RuleEngineOptions options) {
  SOPR_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::Open(std::move(options)));
  return std::make_unique<SessionManager>(std::move(engine));
}

Result<Session*> SessionManager::CreateSession() {
  SOPR_FAILPOINT_RETURN("server.session.create");
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= max_sessions_) {
    const auto delay = std::chrono::duration_cast<std::chrono::milliseconds>(
        create_hint_.NextDelay());
    return Status::ResourceExhausted(
        "session limit reached: " + std::to_string(sessions_.size()) + "/" +
        std::to_string(max_sessions_) +
        " open; close a session or retry-after-ms=" +
        std::to_string(delay.count()));
  }
  create_hint_.Reset();
  sessions_.push_back(std::make_unique<Session>(this, next_session_id_++));
  return sessions_.back().get();
}

Status SessionManager::CloseSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(
      sessions_.begin(), sessions_.end(),
      [id](const std::unique_ptr<Session>& s) { return s->id() == id; });
  if (it == sessions_.end()) {
    return Status::InvalidArgument("no session with id " + std::to_string(id));
  }
  sessions_.erase(it);
  return Status::OK();
}

size_t SessionManager::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

SessionManager::Snapshot SessionManager::Inspect() const {
  Snapshot snap;
  snap.max_sessions = max_sessions_;
  snap.admission = scheduler_.admission().stats();
  std::lock_guard<std::mutex> lock(mu_);
  snap.num_sessions = sessions_.size();
  snap.sessions.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    SessionInfo info;
    info.id = s->id();
    info.commits = s->commits();
    info.aborts = s->aborts();
    info.statements = s->statements();
    info.inflight_statements = s->inflight_statements();
    info.killed = s->killed();
    snap.sessions.push_back(info);
  }
  return snap;
}

}  // namespace server
}  // namespace sopr
