#ifndef SOPR_BENCH_BENCH_UTIL_H_
#define SOPR_BENCH_BENCH_UTIL_H_

// The measurement footing every bench shares (EXPERIMENTS.md §3): one
// discarded warm-up, then kRepetitions timed repetitions, each figure
// reported as median/min/max, stamped with the CPUs the process may run
// on (sched_getaffinity, so `taskset` pinning shows), the build type and
// the thread count.
//
//   - google-benchmark programs register with SOPR_BENCHMARK(fn) and end
//     with SOPR_BENCHMARK_MAIN();
//   - custom-main programs run their repetitions through BenchReport,
//     which writes BENCH_<name>.json in the working directory.

#include <sched.h>
#include <stdlib.h>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "engine/engine.h"

#ifndef SOPR_BUILD_TYPE
#define SOPR_BUILD_TYPE "unknown"
#endif

namespace sopr {

inline void BenchCheck(const Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << "benchmark setup failed (" << what << "): " << status
              << "\n";
    std::abort();
  }
}

/// Creates the orders/audit schema used by the set-vs-instance and
/// cascade benchmarks.
inline void CreateOrdersSchema(Engine* engine) {
  BenchCheck(engine->Execute("create table orders (id int, qty int)"),
             "create orders");
  BenchCheck(engine->Execute("create table audit (id int, tag int)"),
             "create audit");
}

/// One multi-row insert touching `n` order tuples: "insert into orders
/// values (0, 0), (1, 10), ...".
inline std::string OrdersBatch(int n) {
  std::string sql = "insert into orders values ";
  for (int i = 0; i < n; ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(i) + ", " + std::to_string(i * 10) + ")";
  }
  return sql;
}

inline constexpr int kRepetitions = 5;

/// The number of CPUs this process may run on: what `taskset` allows,
/// which on a pinned run is less than the machine's hardware threads.
inline int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Median, min and max of one figure over the timed repetitions.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

inline Spread Summarize(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const double median =
      n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
  return {median, values.front(), values.back()};
}

/// The p-quantile (0..1) of `samples`, nearest rank rounding down.
inline double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[static_cast<size_t>(p * (samples->size() - 1))];
}

/// A fresh directory under /tmp, removed with its contents when this
/// goes out of scope. Declare it before the engine whose WAL it holds.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    std::string tmpl = "/tmp/sopr_bench_" + tag + "_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::cerr << "mkdtemp failed\n";
      std::abort();
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Calls f(0) .. f(n - 1) on even repetitions and f(n - 1) .. f(0) on odd
/// ones, so no compared mode always runs first.
template <typename F>
void Alternate(int rep, int n, F&& f) {
  for (int k = 0; k < n; ++k) f(rep % 2 == 0 ? k : n - 1 - k);
}

/// The repetition harness of the custom-main benches. Run() calls the
/// bench's repetition body once as a discarded warm-up and then
/// `repetitions` times; the body records each figure once per
/// repetition with Add(). Write() emits every repetition's value and the
/// median/min/max of each figure.
class BenchReport {
 public:
  BenchReport(std::string bench, int threads,
              int repetitions = kRepetitions)
      : bench_(std::move(bench)),
        threads_(threads),
        repetitions_(repetitions) {}

  /// A setting or whole-run value, written once at the top level.
  void Set(const std::string& key, double value) {
    settings_.emplace_back(key, value);
  }

  /// One value of `figure` in the repetition under way; dropped during
  /// the warm-up.
  void Add(const std::string& figure, double value) {
    if (warming_up_) return;
    for (auto& [name, values] : figures_) {
      if (name == figure) {
        values.push_back(value);
        return;
      }
    }
    figures_.push_back({figure, {value}});
  }

  /// Runs body(rep) for rep = -1 (the warm-up), then 0 .. repetitions-1.
  template <typename F>
  void Run(F&& body) {
    warming_up_ = true;
    body(-1);
    warming_up_ = false;
    for (int rep = 0; rep < repetitions_; ++rep) body(rep);
  }

  Spread Get(const std::string& figure) const {
    for (const auto& [name, values] : figures_) {
      if (name == figure) return Summarize(values);
    }
    return {};
  }

  /// Writes BENCH_<bench>.json into the working directory.
  void Write() const {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream json(path);
    json << "{\n  \"bench\": \"" << bench_ << "\",\n  \"cpus\": "
         << AffinityCpus() << ",\n  \"build_type\": \"" << SOPR_BUILD_TYPE
         << "\",\n  \"threads\": " << threads_
         << ",\n  \"warmup_repetitions\": 1,\n  \"repetitions\": "
         << repetitions_;
    for (const auto& [key, value] : settings_) {
      json << ",\n  \"" << key << "\": " << value;
    }
    json << ",\n  \"figures\": {";
    for (size_t i = 0; i < figures_.size(); ++i) {
      const auto& [name, values] = figures_[i];
      const Spread s = Summarize(values);
      json << (i == 0 ? "\n" : ",\n") << "    \"" << name
           << "\": {\"median\": " << s.median << ", \"min\": " << s.min
           << ", \"max\": " << s.max << ", \"runs\": [";
      for (size_t r = 0; r < values.size(); ++r) {
        json << (r == 0 ? "" : ", ") << values[r];
      }
      json << "]}";
    }
    json << "\n  }\n}\n";
    std::cout << "wrote " << path << " (" << repetitions_
              << " repetitions on " << AffinityCpus() << " cpu(s))\n";
  }

 private:
  std::string bench_;
  int threads_;
  int repetitions_;
  bool warming_up_ = false;
  std::vector<std::pair<std::string, double>> settings_;
  std::vector<std::pair<std::string, std::vector<double>>> figures_;
};

/// The google-benchmark counterpart: one discarded warm-up, kRepetitions
/// timed repetitions, and only the aggregates (median, min and max among
/// them) reported.
inline void Repeated(benchmark::internal::Benchmark* b) {
  b->MinWarmUpTime(0.1)
      ->Repetitions(kRepetitions)
      ->ReportAggregatesOnly(true)
      ->ComputeStatistics("min",
                          [](const std::vector<double>& v) {
                            return *std::min_element(v.begin(), v.end());
                          })
      ->ComputeStatistics("max", [](const std::vector<double>& v) {
        return *std::max_element(v.begin(), v.end());
      });
}

}  // namespace sopr

#define SOPR_BENCHMARK(fn) BENCHMARK(fn)->Apply(::sopr::Repeated)

/// BENCHMARK_MAIN plus the affinity CPU count, build type and thread
/// count in the report's context block.
#define SOPR_BENCHMARK_MAIN()                                              \
  int main(int argc, char** argv) {                                        \
    ::benchmark::AddCustomContext("affinity_cpus",                         \
                                  std::to_string(::sopr::AffinityCpus())); \
    ::benchmark::AddCustomContext("build_type", SOPR_BUILD_TYPE);          \
    ::benchmark::AddCustomContext("threads", "1");                         \
    ::benchmark::Initialize(&argc, argv);                                  \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;    \
    ::benchmark::RunSpecifiedBenchmarks();                                 \
    ::benchmark::Shutdown();                                               \
    return 0;                                                              \
  }

#endif  // SOPR_BENCH_BENCH_UTIL_H_
