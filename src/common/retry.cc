#include "common/retry.h"

#include <algorithm>

#include "common/cancel.h"

namespace sopr {

Backoff::Backoff(RetryPolicy policy, uint64_t seed)
    : policy_(policy),
      rng_(seed),
      current_us_(static_cast<double>(policy.initial_delay.count())) {
  policy_.jitter = std::clamp(policy_.jitter, 0.0, 1.0);
  policy_.multiplier = std::max(policy_.multiplier, 1.0);
}

bool Backoff::ShouldRetry() const {
  return policy_.max_attempts == 0 || attempts_ < policy_.max_attempts;
}

std::chrono::microseconds Backoff::NextDelay() {
  if (!ShouldRetry()) return std::chrono::microseconds(0);
  ++attempts_;
  const double max_us = static_cast<double>(policy_.max_delay.count());
  const double nominal = std::min(current_us_, max_us);
  current_us_ = std::min(current_us_ * policy_.multiplier, max_us);
  double factor = 1.0;
  if (policy_.jitter > 0.0) {
    std::uniform_real_distribution<double> u(1.0 - policy_.jitter,
                                             1.0 + policy_.jitter);
    factor = u(rng_);
  }
  return std::chrono::microseconds(
      static_cast<int64_t>(std::max(nominal * factor, 0.0)));
}

void Backoff::Reset() {
  attempts_ = 0;
  current_us_ = static_cast<double>(policy_.initial_delay.count());
}

Status Backoff::Sleep(const char* where) {
  return CancellableSleep(NextDelay(), where);
}

}  // namespace sopr
