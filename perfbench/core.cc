#include "core.h"

#include <iostream>

namespace perfbench {

void Checker::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok_.exchange(false)) {
    first_ = what;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  saved_parent_ = tracer_->current_;
  tracer_->spans_.push_back(
      Span{name, NowNs(), 0, tracer_->current_, tracer_->txn_});
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->current_ = saved_parent_;
}

std::vector<double> Tracer::SelfMicros(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    out.push_back(
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) /
        1000.0);
  }
  return out;
}

namespace {

bool CellNull(const QueryResult& r, size_t row, size_t col) {
  return row >= r.rows.size() || col >= r.rows[row].size() ||
         r.rows[row].at(col).is_null();
}

}  // namespace

int64_t CellInt(const QueryResult& r, size_t row, size_t col,
                int64_t null_value) {
  if (CellNull(r, row, col)) return null_value;
  const sopr::Value& v = r.rows[row].at(col);
  if (v.type() == sopr::ValueType::kInt) return v.AsInt();
  return static_cast<int64_t>(v.NumericAsDouble());
}

}  // namespace perfbench
