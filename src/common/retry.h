#ifndef SOPR_COMMON_RETRY_H_
#define SOPR_COMMON_RETRY_H_

#include <chrono>
#include <cstdint>
#include <random>

#include "common/status.h"

namespace sopr {

/// Bounded exponential backoff with jitter, for retrying transient
/// (kUnavailable) failures — a stalled replication primary, a torn WAL
/// tail that has not been completed yet, a mid-rotation log.
///
/// The delay for attempt k is
///   min(initial * multiplier^k, max_delay) * (1 - jitter + U[0, 2*jitter))
/// i.e. a uniformly jittered exponential, capped. Jitter decorrelates
/// pollers that woke on the same event so they do not stampede the
/// primary's filesystem in lockstep.
struct RetryPolicy {
  std::chrono::microseconds initial_delay{std::chrono::microseconds(200)};
  std::chrono::microseconds max_delay{std::chrono::milliseconds(50)};
  double multiplier = 2.0;
  /// Fraction of the nominal delay randomized in each direction; 0.2
  /// means the actual delay is nominal * [0.8, 1.2). Must be in [0, 1].
  double jitter = 0.2;
  /// Attempts before giving up (0 = retry forever). An "attempt" is one
  /// failed try; NextDelay() counts them.
  uint64_t max_attempts = 0;
};

class Backoff {
 public:
  /// `seed` feeds the jitter PRNG; a fixed seed makes delay sequences
  /// reproducible in tests.
  explicit Backoff(RetryPolicy policy, uint64_t seed = 0x5eed);

  /// Delay to sleep before the next retry, advancing the schedule.
  /// Returns a zero duration when max_attempts is exhausted (callers
  /// should then surface the last failure instead of sleeping).
  std::chrono::microseconds NextDelay();

  /// NextDelay() + a cancellation-aware sleep (common/cancel.h): the
  /// sleep is clipped to the ambient deadline and cut short by a kill,
  /// returning that failure — so a detached-rule retry can never sleep
  /// past its transaction's budget. OK when the delay fully elapsed.
  Status Sleep(const char* where);

  /// True while another attempt is allowed under max_attempts.
  bool ShouldRetry() const;

  void Reset();

  uint64_t attempts() const { return attempts_; }
  const RetryPolicy& policy() const { return policy_; }

 private:
  RetryPolicy policy_;
  std::mt19937_64 rng_;
  uint64_t attempts_ = 0;
  double current_us_;
};

}  // namespace sopr

#endif  // SOPR_COMMON_RETRY_H_
