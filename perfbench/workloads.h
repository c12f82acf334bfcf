// The three perfbench workloads. Each is built from a seed, generates
// its own inputs, keeps its own model of what the engine must answer,
// and checks every answer against that model (README.md, "Inputs" and
// "Checks").
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Writer connections (the reader is always one more).
  virtual int writers() const = 0;
  /// Timed writes in one writer round.
  virtual int writes_per_round() const = 0;
  /// Writes per second one writer makes on the reference host (README);
  /// a run of T seconds makes T times this many writes per writer, in
  /// whole rounds, however fast it goes.
  virtual int nominal_writes_per_s() const = 0;
  /// CPUs the run's load process and servers are pinned to (README,
  /// "CPUs"): one where every operation is a short round trip, two where
  /// a write holds a CPU for tens of milliseconds and the reader needs
  /// the other.
  virtual int cpus() const = 0;
  /// Rules the workload defines (Figure 1 maintains trans-info for each).
  virtual int rules_defined() const = 0;
  /// Scripts that build the start state, each one autocommit script:
  /// schema, indexes and rules (one DDL statement each), then the
  /// base-data loads.
  virtual std::vector<std::string> SetupScripts() const = 0;

  /// Writer `w`'s next whole round of timed writes, with the checks
  /// that follow them. Called from writer w's thread only.
  virtual void WriterRound(int w, Conn& conn, Checker& check) = 0;
  /// The reader's next whole round of timed reads.
  virtual void ReaderRound(Conn& conn, Checker& check) = 0;
  /// Checks after every writer and the reader have stopped.
  virtual void FinalCheck(Conn& conn, Checker& check) = 0;
};

/// "wire_oltp", "rule_cascade" or "set_bulk"; null for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
