// Shared pieces of the perfbench binary: a seeded generator, latency
// summaries, the span recorder of the traced replay, and the Conn
// interface through which every workload drives the engine — over the
// wire in measured runs, in-process in the traced replay.
#ifndef PERFBENCH_CORE_H_
#define PERFBENCH_CORE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/evaluator.h"

namespace perfbench {

using sopr::QueryResult;
using sopr::Result;
using sopr::Status;
using Clock = std::chrono::steady_clock;

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// splitmix64: the same seed gives the same stream on every platform,
/// unlike the implementation-defined std:: distributions.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
               1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  /// True with probability pct/100.
  bool Chance(int pct) { return Range(0, 99) < pct; }

 private:
  uint64_t state_;
};

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  double frac = pos - static_cast<double>(i);
  return v[i] + (v[i + 1] - v[i]) * frac;
}

/// Records the first correctness failure; any thread may report.
class Checker {
 public:
  void Fail(const std::string& what);
  bool ok() const { return ok_.load(); }
  std::string first() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::atomic<bool> ok_{true};
  mutable std::mutex mu_;
  std::string first_;
};

/// One traced call: a name, start and end, its parent span (-1 for a
/// root) and the transaction (script) it belongs to.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int parent;
  uint64_t txn;
};

/// In-memory span store of the single-threaded traced replay. Spans are
/// written out only at the end, so recording costs two clock reads and
/// a vector append. A disabled tracer records nothing and is what the
/// untraced replay runs with, which is how the tracing overhead is
/// measured.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t txn() const { return txn_; }
  void set_txn(uint64_t txn) { txn_ = txn; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  /// Self time (span minus its children) of every span named `name`, in
  /// microseconds, in recording order.
  std::vector<double> SelfMicros(const std::string& name) const;

 private:
  static int64_t NowNs();

  bool enabled_;
  std::vector<Span> spans_;
  int current_ = -1;
  uint64_t txn_ = 0;
};

/// Latency samples and counts of one connection.
struct ConnStats {
  std::vector<double> write_us;
  std::vector<double> read_us;
  uint64_t commits = 0;
  uint64_t write_failed = 0;
  uint64_t reads = 0;
  uint64_t read_failed = 0;
  /// Time spent in untimed checks and cleanups, excluded from rates.
  Clock::duration off_clock{0};
  /// Wall time of the connection's rounds minus off_clock: the time its
  /// rate is taken over.
  Clock::duration busy{0};
  /// WAL bytes appended by untimed cleanups, excluded from WAL-per-txn.
  int64_t off_clock_wal_bytes = 0;
};

/// One connection as a workload sees it. Write and Read are the timed
/// operations that count as attempted; CheckQuery and CleanupWrite are
/// the benchmark's own untimed verification and scratch-table resets.
class Conn {
 public:
  virtual ~Conn() = default;
  virtual Status Write(const std::string& sql) = 0;
  virtual Result<QueryResult> Read(const std::string& sql) = 0;
  virtual Result<QueryResult> CheckQuery(const std::string& sql) = 0;
  virtual Status CleanupWrite(const std::string& sql) = 0;
  ConnStats& stats() { return stats_; }

 protected:
  ConnStats stats_;
};

/// Integer value of a result cell; NULL reads as `null_value`.
int64_t CellInt(const QueryResult& r, size_t row, size_t col,
                int64_t null_value = 0);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_H_
