#include "net/frame.h"

namespace sopr {
namespace net {

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kGoodbye);
}

// --- Result sets ----------------------------------------------------------

void PayloadWriter::PutResult(const QueryResult& result) {
  U32(static_cast<uint32_t>(result.columns.size()));
  for (const std::string& c : result.columns) Str(c);
  U32(static_cast<uint32_t>(result.rows.size()));
  for (const Row& r : result.rows) PutRow(r);
}

Result<QueryResult> PayloadReader::GetResult() {
  QueryResult result;
  SOPR_ASSIGN_OR_RETURN(uint32_t ncols, U32());
  if (ncols > remaining()) {
    return Status::InvalidArgument("result declares " +
                                   std::to_string(ncols) + " columns");
  }
  result.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    SOPR_ASSIGN_OR_RETURN(std::string c, Str());
    result.columns.push_back(std::move(c));
  }
  SOPR_ASSIGN_OR_RETURN(uint32_t nrows, U32());
  if (nrows > remaining()) {
    return Status::InvalidArgument("result declares " +
                                   std::to_string(nrows) + " rows");
  }
  result.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    SOPR_ASSIGN_OR_RETURN(Row r, GetRow());
    result.rows.push_back(std::move(r));
  }
  return result;
}

// --- Frame encode / decode ------------------------------------------------

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  out->push_back(static_cast<char>(type));
  out->append(payload.data(), payload.size());
}

Result<std::optional<Frame>> FrameDecoder::Next(size_t max_payload) {
  if (buffer_.size() < kFrameHeaderBytes) return std::optional<Frame>();
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(buffer_[i])) << (8 * i);
  }
  if (len > max_payload) {
    return Status::InvalidArgument(
        "oversized frame: declared payload " + std::to_string(len) +
        " bytes exceeds the limit of " + std::to_string(max_payload));
  }
  if (buffer_.size() < kFrameHeaderBytes + len) return std::optional<Frame>();
  Frame frame;
  frame.type = static_cast<FrameType>(static_cast<uint8_t>(buffer_[4]));
  frame.payload = buffer_.substr(kFrameHeaderBytes, len);
  buffer_.erase(0, kFrameHeaderBytes + len);
  return std::optional<Frame>(std::move(frame));
}

// --- Typed payload helpers ------------------------------------------------

std::string EncodeError(const Status& status, uint32_t retry_after_ms) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(status.code()));
  w.U32(retry_after_ms);
  w.Str(status.message());
  return w.Take();
}

Status DecodeError(std::string_view payload, uint32_t* retry_after_ms) {
  PayloadReader r(payload);
  auto code = r.U8();
  auto retry = r.U32();
  auto message = r.Str();
  if (!code.ok() || !retry.ok() || !message.ok()) {
    return Status::Internal("malformed error frame from server");
  }
  if (retry_after_ms != nullptr) *retry_after_ms = retry.value();
  uint8_t c = code.value();
  if (c > static_cast<uint8_t>(StatusCode::kInternal)) {
    c = static_cast<uint8_t>(StatusCode::kInternal);
  }
  return Status(static_cast<StatusCode>(c), std::move(message).value());
}

uint32_t ParseRetryAfterMs(const std::string& message) {
  static constexpr char kKey[] = "retry-after-ms=";
  const size_t pos = message.find(kKey);
  if (pos == std::string::npos) return 0;
  uint64_t ms = 0;
  size_t i = pos + sizeof(kKey) - 1;
  bool any = false;
  while (i < message.size() && message[i] >= '0' && message[i] <= '9') {
    ms = ms * 10 + static_cast<uint64_t>(message[i] - '0');
    if (ms > 0xffffffffull) return 0xffffffffu;
    ++i;
    any = true;
  }
  return any ? static_cast<uint32_t>(ms) : 0;
}

std::string EncodeStats(const WireStats& stats) {
  PayloadWriter w;
  w.U64(stats.num_sessions);
  w.U64(stats.max_sessions);
  w.U64(stats.admitted);
  w.U64(stats.shed_queue_full);
  w.U64(stats.shed_queue_deadline);
  w.U64(stats.shed_cancelled);
  w.U64(stats.admission_inflight);
  w.U64(stats.admission_queued);
  w.U64(stats.group_commit.cohorts);
  w.U64(stats.group_commit.batches);
  w.U64(stats.group_commit.largest_cohort);
  w.U32(static_cast<uint32_t>(stats.group_commit.cohort_size_hist.size()));
  for (uint64_t bucket : stats.group_commit.cohort_size_hist) w.U64(bucket);
  w.U64(stats.connections_accepted);
  w.U64(stats.connections_active);
  w.U64(stats.protocol_errors);
  w.U32(static_cast<uint32_t>(stats.sessions.size()));
  for (const WireStats::SessionStats& s : stats.sessions) {
    w.U64(s.id);
    w.U64(s.commits);
    w.U64(s.aborts);
    w.U64(s.statements);
    w.U64(s.inflight_statements);
    w.U8(s.killed ? 1 : 0);
  }
  return w.Take();
}

Result<WireStats> DecodeStats(std::string_view payload) {
  PayloadReader r(payload);
  WireStats s;
  SOPR_ASSIGN_OR_RETURN(s.num_sessions, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.max_sessions, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.admitted, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.shed_queue_full, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.shed_queue_deadline, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.shed_cancelled, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.admission_inflight, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.admission_queued, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.group_commit.cohorts, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.group_commit.batches, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.group_commit.largest_cohort, r.U64());
  SOPR_ASSIGN_OR_RETURN(uint32_t hist_len, r.U32());
  for (uint32_t i = 0; i < hist_len; ++i) {
    SOPR_ASSIGN_OR_RETURN(uint64_t bucket, r.U64());
    if (i < s.group_commit.cohort_size_hist.size()) {
      s.group_commit.cohort_size_hist[i] = bucket;
    }
  }
  SOPR_ASSIGN_OR_RETURN(s.connections_accepted, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.connections_active, r.U64());
  SOPR_ASSIGN_OR_RETURN(s.protocol_errors, r.U64());
  SOPR_ASSIGN_OR_RETURN(uint32_t nsessions, r.U32());
  if (nsessions > r.remaining()) {
    return Status::InvalidArgument("stats payload declares " +
                                   std::to_string(nsessions) + " sessions");
  }
  s.sessions.reserve(nsessions);
  for (uint32_t i = 0; i < nsessions; ++i) {
    WireStats::SessionStats e;
    SOPR_ASSIGN_OR_RETURN(e.id, r.U64());
    SOPR_ASSIGN_OR_RETURN(e.commits, r.U64());
    SOPR_ASSIGN_OR_RETURN(e.aborts, r.U64());
    SOPR_ASSIGN_OR_RETURN(e.statements, r.U64());
    SOPR_ASSIGN_OR_RETURN(e.inflight_statements, r.U64());
    SOPR_ASSIGN_OR_RETURN(uint8_t killed, r.U8());
    e.killed = killed != 0;
    s.sessions.push_back(e);
  }
  return s;
}

}  // namespace net
}  // namespace sopr
