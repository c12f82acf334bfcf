#ifndef SOPR_NET_FRAME_H_
#define SOPR_NET_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_codec.h"
#include "common/status.h"
#include "expr/evaluator.h"
#include "types/row.h"
#include "types/value.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace net {

/// The wire protocol (docs/NETWORK.md): length-prefixed binary frames,
/// all integers little-endian.
///
///   frame   = u32 payload_len | u8 type | payload[payload_len]
///
/// A frame whose payload_len exceeds kMaxPayloadBytes is a protocol
/// error: the server answers with one kError frame and closes the
/// connection without reading further (the declared length cannot be
/// trusted). Unknown frame types and short payloads are protocol errors
/// too — detected after the frame boundary, so the error names the type.
inline constexpr uint32_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 5;
inline constexpr size_t kMaxPayloadBytes = 8u << 20;  // 8 MiB

enum class FrameType : uint8_t {
  // Requests (client -> server). kHello must be the first frame on a
  // connection; everything else is refused until the handshake is done.
  kHello = 0x01,    // u32 protocol_version, str client_name
  kExecute = 0x02,  // str sql  (autocommit script: DDL, DML, or selects)
  kQuery = 0x03,    // str sql  (single select, snapshot read -> kRows)
  kPin = 0x04,      // (empty)  pin a snapshot for this connection
  kQueryAt = 0x05,  // str sql  (select at the connection's pinned snapshot)
  kUnpin = 0x06,    // (empty)  release the connection's pin
  kKill = 0x07,     // u64 session_id (0 = self), str reason
  kStats = 0x08,    // (empty)  admin: front-end + group-commit counters
  kPing = 0x09,     // (empty)
  kGoodbye = 0x0a,  // (empty)  orderly close: server flushes, then closes

  // Responses (server -> client).
  kHelloOk = 0x81,     // u32 protocol_version, u64 session_id
  kOk = 0x82,          // u64 commit_lsn, u64 lsn (pin LSN for kPin; else 0)
  kRows = 0x83,        // result set (columns + typed rows)
  kError = 0x84,       // u8 status_code, u32 retry_after_ms, str message
  kStatsReply = 0x85,  // WireStats
  kPong = 0x86,        // (empty)
};

/// True for types a client may send (the server-side validity check).
bool IsRequestType(uint8_t type);

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

// --- Payload primitives ---------------------------------------------------

/// Appends payload primitives (common/byte_codec.h) plus result sets to a
/// byte buffer.
class PayloadWriter : public ByteWriter {
 public:
  void PutResult(const QueryResult& result);
};

/// Bounds-checked reader over a payload (common/byte_codec.h) that also
/// decodes result sets. Every accessor fails with kInvalidArgument on
/// truncation — a malformed payload can never read out of bounds or
/// crash the server.
class PayloadReader : public ByteReader {
 public:
  using ByteReader::ByteReader;

  Result<QueryResult> GetResult();
};

// --- Frame encode / decode ------------------------------------------------

/// Appends one complete frame (header + payload) to `out`.
void AppendFrame(FrameType type, std::string_view payload, std::string* out);

inline std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  AppendFrame(type, payload, &out);
  return out;
}

/// Incremental frame decoder over a connection's input buffer. Feed
/// bytes as they arrive; Next() pops complete frames.
class FrameDecoder {
 public:
  void Feed(const char* data, size_t n) { buffer_.append(data, n); }

  /// The next complete frame, std::nullopt when more bytes are needed,
  /// or kInvalidArgument when the buffered header declares a payload
  /// over `max_payload` (the stream is unrecoverable from that point:
  /// the declared length cannot be skipped safely).
  Result<std::optional<Frame>> Next(size_t max_payload = kMaxPayloadBytes);

  size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

// --- Typed payload helpers ------------------------------------------------

/// kError payload: the Status code + message, plus the retry-after hint
/// (milliseconds, 0 = none) the overload machinery attached.
std::string EncodeError(const Status& status, uint32_t retry_after_ms);
/// Reconstructs the Status (and hint) a kError frame carries. A payload
/// carrying an unknown status code decodes as kInternal.
Status DecodeError(std::string_view payload, uint32_t* retry_after_ms);

/// Extracts the "retry-after-ms=<n>" hint the admission controller and
/// session-limit refusals embed in their messages (0 if absent).
uint32_t ParseRetryAfterMs(const std::string& message);

/// Front-end + group-commit counters served by the kStats admin frame
/// (SessionManager::Inspect + wal::GroupCommitStats + connection-level
/// counters), flattened for the wire.
struct WireStats {
  uint64_t num_sessions = 0;
  uint64_t max_sessions = 0;
  // Writer admission (AdmissionStats).
  uint64_t admitted = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_queue_deadline = 0;
  uint64_t shed_cancelled = 0;
  uint64_t admission_inflight = 0;
  uint64_t admission_queued = 0;
  // Group commit (GroupCommitStats).
  wal::GroupCommitStats group_commit;
  // Connection server.
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t protocol_errors = 0;
  // Per-session counters (SessionManager::SessionInfo).
  struct SessionStats {
    uint64_t id = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t statements = 0;
    uint64_t inflight_statements = 0;
    bool killed = false;
  };
  std::vector<SessionStats> sessions;
};

std::string EncodeStats(const WireStats& stats);
Result<WireStats> DecodeStats(std::string_view payload);

}  // namespace net
}  // namespace sopr

#endif  // SOPR_NET_FRAME_H_
