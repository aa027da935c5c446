#include <utility>

#include "bench.h"
#include "obs/trace.h"

namespace lbsa_bench {

std::uint64_t SpanLog::new_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void SpanLog::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanLog::to_chrome_json() const {
  lbsa::obs::Tracer tracer;
  for (const SpanRecord& s : spans()) {
    lbsa::obs::TraceEvent e;
    e.name = s.name;
    e.cat = s.layer;
    e.lane = s.lane;
    const std::uint64_t start = s.start_ns - epoch_ns_;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    e.ts_us = start / 1000;
    e.dur_us = dur / 1000;
    e.args = {{"span_id", static_cast<std::int64_t>(s.id)},
              {"parent_id", static_cast<std::int64_t>(s.parent)},
              {"request_id", static_cast<std::int64_t>(s.request)},
              {"start_ns", static_cast<std::int64_t>(start)},
              {"dur_ns", static_cast<std::int64_t>(dur)}};
    tracer.record(std::move(e));
  }
  return tracer.to_chrome_json();
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::string layer,
                       std::uint64_t parent, std::uint64_t request)
    : log_(log) {
  record_.name = std::move(name);
  record_.layer = std::move(layer);
  record_.parent = parent;
  record_.request = request;
  record_.id = log_->new_id();
  record_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  record_.end_ns = now_ns();
  log_->add(std::move(record_));
}

}  // namespace lbsa_bench
