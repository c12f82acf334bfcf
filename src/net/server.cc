#include "net/server.h"

#include <utility>

#include "wal/wal_writer.h"

namespace sopr {
namespace net {

namespace server_ns = sopr::server;

/// Bridges EventLoop callbacks (loop thread) into the Server. A separate
/// object so the Server's public surface stays free of Handler methods.
class Server::LoopHandler : public EventLoop::Handler {
 public:
  explicit LoopHandler(Server* server) : server_(server) {}
  void OnOpen(uint64_t conn_id) override { server_->OnOpen(conn_id); }
  bool OnFrame(uint64_t conn_id, Frame frame) override {
    return server_->OnFrame(conn_id, std::move(frame));
  }
  void OnClose(uint64_t conn_id, const Status& why) override {
    server_->OnClose(conn_id, why);
  }

 private:
  Server* const server_;
};

Result<std::unique_ptr<Server>> Server::Start(
    sopr::server::SessionManager* manager, Options options) {
  auto server =
      std::unique_ptr<Server>(new Server(manager, std::move(options)));
  server->handler_ = std::make_unique<LoopHandler>(server.get());
  auto loop = EventLoop::Listen(server->options_.loop, server->handler_.get());
  if (!loop.ok()) return loop.status();
  server->loop_ = std::move(loop).value();
  server->loop_->Start();
  const size_t workers =
      server->options_.workers > 0 ? server->options_.workers : 1;
  server->workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerMain(); });
  }
  return server;
}

Server::Server(sopr::server::SessionManager* manager, Options options)
    : manager_(manager), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  // call_once makes concurrent Shutdown calls safe: exactly one caller
  // runs the body (stopping the loop and joining the workers — a join
  // must never race another join of the same thread); late callers block
  // until it finishes, so "returned from Shutdown" always means "down".
  std::call_once(shutdown_once_, [this] {
    // Stop the loop first: every connection tears down, each OnClose
    // cancels any in-flight statement and marks its Conn closed, so the
    // workers drain fast.
    if (loop_) loop_->Stop();
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    // Workers are gone; reap whatever connections they never got to.
    std::vector<std::pair<uint64_t, ConnPtr>> leftover;
    {
      std::lock_guard<std::mutex> lock(mu_);
      leftover.assign(conns_.begin(), conns_.end());
    }
    for (auto& [id, conn] : leftover) ReapConn(id, conn);
  });
}

uint64_t Server::dispatch_protocol_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_protocol_errors_;
}

void Server::OnOpen(uint64_t conn_id) {
  auto conn = std::make_shared<Conn>();
  std::lock_guard<std::mutex> lock(mu_);
  conns_.emplace(conn_id, std::move(conn));
}

void Server::OnClose(uint64_t conn_id, const Status& /*why*/) {
  ConnPtr conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  bool reap_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed = true;
    conn->requests.clear();
    if (conn->busy) {
      // Mid-statement disconnect: the worker is inside the session right
      // now. Cancel so the statement rolls back at its next cancellation
      // point; the worker reaps when it returns.
      if (conn->session != nullptr) {
        conn->session->Cancel("client disconnected");
      }
    } else if (!conn->scheduled) {
      reap_now = true;
    }
    // If scheduled-but-not-busy, the worker that pops it observes
    // `closed` and reaps.
  }
  if (reap_now) ReapConn(conn_id, conn);
}

void Server::ReapConn(uint64_t conn_id, const ConnPtr& conn) {
  uint64_t session_id = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    session_id = conn->session_id;
    // Null out under the conn mutex: every other reader checks `closed`
    // (already set) under this mutex before touching the session.
    conn->session = nullptr;
    conn->pin.reset();
  }
  if (session_id != 0) {
    (void)manager_->CloseSession(session_id);
  }
  std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(conn_id);
}

void Server::SendError(uint64_t conn_id, const Status& status, bool close) {
  const uint32_t retry = ParseRetryAfterMs(status.message());
  loop_->Send(conn_id,
              EncodeFrame(FrameType::kError, EncodeError(status, retry)));
  if (close) loop_->CloseConnection(conn_id, /*after_flush=*/true);
}

bool Server::HandleHello(uint64_t conn_id, const ConnPtr& conn,
                         const Frame& frame) {
  PayloadReader reader(frame.payload);
  auto version = reader.U32();
  auto client = version.ok() ? reader.Str()
                             : Result<std::string>(version.status());
  if (!client.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++dispatch_protocol_errors_;
  }
  if (!client.ok() || frame.type != FrameType::kHello) {
    SendError(conn_id,
              Status::InvalidArgument("protocol error: malformed HELLO"),
              /*close=*/true);
    return false;
  }
  if (version.value() != kProtocolVersion) {
    SendError(conn_id,
              Status::InvalidArgument(
                  "protocol version mismatch: client speaks v" +
                  std::to_string(version.value()) + ", server speaks v" +
                  std::to_string(kProtocolVersion)),
              /*close=*/true);
    return false;
  }
  // The session-limit refusal is the handshake's structured error: the
  // kError frame carries kResourceExhausted plus the escalating
  // retry-after hint CreateSession embedded, then the connection closes.
  auto session = manager_->CreateSession();
  if (!session.ok()) {
    SendError(conn_id, session.status(), /*close=*/true);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->session = session.value();
    conn->session_id = session.value()->id();
    conn->hello_done = true;
  }
  PayloadWriter ok;
  ok.U32(kProtocolVersion);
  ok.U64(session.value()->id());
  loop_->Send(conn_id, EncodeFrame(FrameType::kHelloOk, ok.bytes()));
  return true;
}

bool Server::OnFrame(uint64_t conn_id, Frame frame) {
  ConnPtr conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return true;
    conn = it->second;
  }
  if (!IsRequestType(static_cast<uint8_t>(frame.type))) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++dispatch_protocol_errors_;
    }
    SendError(conn_id,
              Status::InvalidArgument(
                  "protocol error: unknown or non-request frame type " +
                  std::to_string(static_cast<unsigned>(frame.type))),
              /*close=*/true);
    return false;  // the connection is closing — stop decoding
  }
  bool hello_done;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    hello_done = conn->hello_done;
  }
  if (!hello_done) {
    // First frame must be the handshake; it runs right here on the loop
    // thread (CreateSession is a bounded map insert, never SQL).
    if (frame.type != FrameType::kHello) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++dispatch_protocol_errors_;
      }
      SendError(conn_id,
                Status::InvalidArgument(
                    "protocol error: expected HELLO as first frame"),
                /*close=*/true);
      return false;
    }
    return HandleHello(conn_id, conn, frame);
  }
  if (frame.type == FrameType::kHello) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++dispatch_protocol_errors_;
    }
    SendError(conn_id,
              Status::InvalidArgument("protocol error: duplicate HELLO"),
              /*close=*/true);
    return false;
  }
  // Queue for a worker; pause the socket (via the return value — honored
  // before the loop decodes the next frame) when the connection is
  // further ahead of its worker than the queue allows.
  bool schedule = false;
  bool keep_reading = true;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return true;
    conn->requests.push_back(std::move(frame));
    if (!conn->busy && !conn->scheduled) {
      conn->scheduled = true;
      schedule = true;
    }
    if (conn->requests.size() >= options_.max_queued_requests) {
      conn->read_paused = true;
    }
    keep_reading = !conn->read_paused;
  }
  if (schedule) ScheduleConn(conn_id, conn);
  return keep_reading;
}

void Server::ScheduleConn(uint64_t conn_id, const ConnPtr& /*conn*/) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(conn_id);
  }
  work_cv_.notify_one();
}

void Server::WorkerMain() {
  while (true) {
    uint64_t conn_id = 0;
    ConnPtr conn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !ready_.empty(); });
      if (shutdown_) return;
      conn_id = ready_.front();
      ready_.pop_front();
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;  // reaped while queued
      conn = it->second;
    }
    DriveConn(conn_id, conn);
  }
}

void Server::DriveConn(uint64_t conn_id, const ConnPtr& conn) {
  while (true) {
    // Claim the next batch under the conn mutex. Consecutive EXECUTE
    // frames become one pipelined run — that is the whole point of the
    // queue: back-to-back commits stage together and share a
    // group-commit cohort (Session::ExecutePipelined).
    std::vector<Frame> batch;
    bool pipelined = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->scheduled = false;
      if (conn->closed) {
        conn->busy = false;
        break;  // reap below
      }
      if (conn->requests.empty()) {
        conn->busy = false;
        return;
      }
      conn->busy = true;
      if (conn->requests.front().type == FrameType::kExecute) {
        pipelined = true;
        while (!conn->requests.empty() &&
               conn->requests.front().type == FrameType::kExecute &&
               batch.size() < options_.max_pipeline) {
          batch.push_back(std::move(conn->requests.front()));
          conn->requests.pop_front();
        }
      } else {
        batch.push_back(std::move(conn->requests.front()));
        conn->requests.pop_front();
      }
      // Queue drained below the resume threshold: let the socket read
      // again.
      if (conn->read_paused &&
          conn->requests.size() < options_.max_queued_requests / 2) {
        conn->read_paused = false;
        loop_->SetReadPaused(conn_id, false);
      }
    }

    std::string out;
    if (pipelined) {
      server_ns::Session* session;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        session = conn->closed ? nullptr : conn->session;
      }
      if (session != nullptr) {
        std::vector<std::string> scripts;
        scripts.reserve(batch.size());
        for (Frame& f : batch) {
          PayloadReader reader(f.payload);
          auto sql = reader.Str();
          scripts.push_back(sql.ok() ? std::move(sql).value() : std::string());
        }
        auto results = session->ExecutePipelined(scripts);
        for (size_t i = 0; i < batch.size(); ++i) {
          PayloadReader reader(batch[i].payload);
          if (!reader.Str().ok()) {
            AppendFrame(FrameType::kError,
                        EncodeError(Status::InvalidArgument(
                                        "protocol error: malformed EXECUTE"),
                                    0),
                        &out);
            continue;
          }
          const auto& r = results[i];
          if (r.status.ok()) {
            PayloadWriter ok;
            ok.U64(r.receipt.commit_lsn);
            ok.U64(0);
            AppendFrame(FrameType::kOk, ok.bytes(), &out);
          } else {
            AppendFrame(FrameType::kError,
                        EncodeError(r.status,
                                    ParseRetryAfterMs(r.status.message())),
                        &out);
          }
        }
      }
    } else {
      out = HandleRequest(conn_id, conn, batch.front());
    }
    if (!out.empty()) loop_->Send(conn_id, std::move(out));
  }
  ReapConn(conn_id, conn);
}

std::string Server::HandleRequest(uint64_t conn_id, const ConnPtr& conn,
                                  const Frame& frame) {
  server_ns::Session* session;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    session = conn->closed ? nullptr : conn->session;
  }
  if (session == nullptr) return std::string();

  auto error_frame = [](const Status& status) {
    return EncodeFrame(FrameType::kError,
                       EncodeError(status, ParseRetryAfterMs(status.message())));
  };
  auto ok_frame = [](uint64_t commit_lsn, uint64_t lsn) {
    PayloadWriter w;
    w.U64(commit_lsn);
    w.U64(lsn);
    return EncodeFrame(FrameType::kOk, w.bytes());
  };
  auto protocol_error = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++dispatch_protocol_errors_;
    return error_frame(Status::InvalidArgument("protocol error: " + what));
  };

  switch (frame.type) {
    case FrameType::kQuery: {
      PayloadReader reader(frame.payload);
      auto sql = reader.Str();
      if (!sql.ok()) return protocol_error("malformed QUERY");
      auto result = session->Query(sql.value());
      if (!result.ok()) return error_frame(result.status());
      PayloadWriter w;
      w.PutResult(result.value());
      return EncodeFrame(FrameType::kRows, w.bytes());
    }
    case FrameType::kPin: {
      auto pin = session->PinSnapshot();
      if (!pin.ok()) return error_frame(pin.status());
      const uint64_t lsn = pin.value().lsn();
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->pin = std::move(pin).value();
      }
      return ok_frame(0, lsn);
    }
    case FrameType::kQueryAt: {
      PayloadReader reader(frame.payload);
      auto sql = reader.Str();
      if (!sql.ok()) return protocol_error("malformed QUERY_AT");
      // The pin lives in the conn, but QueryAt only reads its LSN; the
      // worker is the only thread that assigns it, so borrowing the
      // optional outside the lock is safe.
      server_ns::Session::Snapshot* pin = nullptr;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->pin.has_value()) pin = &*conn->pin;
      }
      if (pin == nullptr) {
        return error_frame(Status::InvalidArgument(
            "QUERY_AT without a pinned snapshot (send PIN first)"));
      }
      auto result = session->QueryAt(*pin, sql.value());
      if (!result.ok()) return error_frame(result.status());
      PayloadWriter w;
      w.PutResult(result.value());
      return EncodeFrame(FrameType::kRows, w.bytes());
    }
    case FrameType::kUnpin: {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->pin.reset();
      return ok_frame(0, 0);
    }
    case FrameType::kKill: {
      PayloadReader reader(frame.payload);
      auto sid = reader.U64();
      auto reason = sid.ok() ? reader.Str() : Result<std::string>(sid.status());
      if (!reason.ok()) return protocol_error("malformed KILL");
      const uint64_t target =
          sid.value() == 0 ? session->id() : sid.value();
      // Resolve the target session through the server's own connection
      // table: the KILL control plane reaches any wire session, self
      // included. Cancel() must run while the victim conn's mutex is
      // still held: a Session is destroyed only after ReapConn nulls the
      // pointer under that mutex, so a non-null pointer observed here is
      // alive for exactly as long as the lock is — releasing first would
      // let a concurrent disconnect free the Session under us. Cancel is
      // a non-blocking token flip, safe under both locks and from this
      // (foreign) thread.
      const std::string why = reason.value().empty() ? "killed via wire KILL"
                                                     : reason.value();
      bool killed = false;
      {
        std::lock_guard<std::mutex> server_lock(mu_);
        for (auto& [id, other] : conns_) {
          std::lock_guard<std::mutex> other_lock(other->mu);
          if (!other->closed && other->session != nullptr &&
              other->session_id == target) {
            other->session->Cancel(why);
            killed = true;
            break;
          }
        }
      }
      if (!killed) {
        return error_frame(Status::InvalidArgument(
            "KILL: no connected session with id " + std::to_string(target)));
      }
      return ok_frame(0, 0);
    }
    case FrameType::kStats:
      return EncodeFrame(FrameType::kStatsReply, StatsReply());
    case FrameType::kPing:
      return EncodeFrame(FrameType::kPong, std::string());
    case FrameType::kGoodbye:
      // Orderly close: flush everything already queued, then close. No
      // response frame — the close is the response.
      loop_->CloseConnection(conn_id, /*after_flush=*/true);
      return std::string();
    case FrameType::kExecute:
    case FrameType::kHello:
    default:
      return protocol_error("unexpected frame type " +
                            std::to_string(static_cast<unsigned>(frame.type)));
  }
}

std::string Server::StatsReply() const {
  WireStats stats;
  const auto snapshot = manager_->Inspect();
  stats.num_sessions = snapshot.num_sessions;
  stats.max_sessions = snapshot.max_sessions;
  stats.admitted = snapshot.admission.admitted;
  stats.shed_queue_full = snapshot.admission.shed_queue_full;
  stats.shed_queue_deadline = snapshot.admission.shed_queue_deadline;
  stats.shed_cancelled = snapshot.admission.shed_cancelled;
  stats.admission_inflight = snapshot.admission.inflight;
  stats.admission_queued = snapshot.admission.queued;
  stats.sessions.reserve(snapshot.sessions.size());
  for (const auto& info : snapshot.sessions) {
    WireStats::SessionStats s;
    s.id = info.id;
    s.commits = info.commits;
    s.aborts = info.aborts;
    s.statements = info.statements;
    s.inflight_statements = info.inflight_statements;
    s.killed = info.killed;
    stats.sessions.push_back(s);
  }
  if (wal::WalWriter* wal = manager_->engine().wal()) {
    stats.group_commit = wal->group_stats();
  }
  const EventLoop::Counters loop = loop_->counters();
  stats.connections_accepted = loop.accepted;
  stats.connections_active = loop.active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.protocol_errors = loop.protocol_errors + dispatch_protocol_errors_;
  }
  return EncodeStats(stats);
}

}  // namespace net
}  // namespace sopr
