#include "serve/service.h"

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>

#include "modelcheck/cancel.h"
#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/fuzz.h"
#include "modelcheck/run_task.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace lbsa::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

struct CheckService::Request {
  ServeRequest req;
  ResponseSink sink;
  modelcheck::CancelToken cancel;
  modelcheck::Deadline deadline = {};
  Clock::time_point submitted = {};
};

CheckService::CheckService(ServiceOptions options) : options_(options) {
  latency_buckets_.assign(obs::kHistogramBuckets, 0);
  int workers = options_.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 2;
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

CheckService::~CheckService() { shutdown(); }

void CheckService::submit_line(std::string_view line, ResponseSink sink) {
  auto req_or = parse_request(line);
  if (!req_or.is_ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++requests_total_;
      ++requests_rejected_;
    }
    // A line that does not even parse has no usable request id; "" tells
    // the client to match the error to its most recent unanswered send.
    sink(error_response("", req_or.status()));
    return;
  }
  submit(std::move(req_or).value(), std::move(sink));
}

void CheckService::submit(ServeRequest request, ResponseSink sink) {
  const Clock::time_point now = Clock::now();

  if (request.op == "status") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++requests_total_;
    }
    // stats_json() takes mu_ itself — composed outside the lock above.
    sink(status_response(request.id, stats_json()));
    return;
  }

  if (request.op == "cancel") {
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++requests_total_;
      auto it = active_.find(request.target);
      if (it != active_.end()) {
        it->second->cancel.cancel();
        found = true;
        ++cancelled_;
      }
    }
    sink(cancel_ack_response(request.id, request.target, found));
    return;
  }

  auto entry = std::make_shared<Request>();
  entry->req = std::move(request);
  entry->sink = std::move(sink);
  entry->submitted = now;
  if (entry->req.deadline_ms > 0) {
    // The clock starts at submit, not at dequeue: queue wait counts
    // against the deadline, so an overloaded server sheds load instead of
    // silently stretching every request's budget.
    entry->deadline = now + std::chrono::milliseconds(entry->req.deadline_ms);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_total_;
    if (entry->req.op == "check") ++requests_check_;
    if (entry->req.op == "explore") ++requests_explore_;
    if (entry->req.op == "fuzz") ++requests_fuzz_;
    if (quit_) {
      ++requests_rejected_;
    } else {
      active_[entry->req.id] = entry;
      queue_.push_back(entry);
      cv_.notify_one();
      return;
    }
  }
  entry->sink(error_response(
      entry->req.id, failed_precondition("serve: server is shutting down")));
}

void CheckService::worker_main() {
  for (;;) {
    std::shared_ptr<Request> req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return quit_ || !queue_.empty(); });
      if (queue_.empty()) return;  // quit_ and drained
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    run_request(req);
  }
}

void CheckService::finish_request(const std::shared_ptr<Request>& req,
                                  std::string_view line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(req->req.id);
    // Only erase our own registration: a duplicate id may have replaced it.
    if (it != active_.end() && it->second == req) active_.erase(it);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - req->submitted)
                        .count();
    record_latency(us > 0 ? static_cast<std::uint64_t>(us) : 0);
  }
  req->sink(line);
}

void CheckService::record_latency(std::uint64_t us) {
  // obs/metrics.h log2 bucketing: bucket 0 holds 0, bucket bit_width(v)
  // holds v >= 1 (== 1 + floor(log2 v)).
  const int bucket = us == 0 ? 0 : std::bit_width(us);
  ++latency_buckets_[static_cast<std::size_t>(bucket)];
  ++latency_count_;
}

void CheckService::run_request(const std::shared_ptr<Request>& req) {
  const ServeRequest& r = req->req;

  auto task_or = modelcheck::make_named_task(r.task);
  if (!task_or.is_ok()) {
    finish_request(req, error_response(r.id, task_or.status()));
    return;
  }
  const modelcheck::NamedTask& task = task_or.value();

  // Build the workload options + the cache key's shape half. The key holds
  // every request knob that can influence the result bytes (report params
  // echo threads/engine even though the graph is invariant to them) plus
  // the checkpoint-layer fingerprint of the graph-shaping inputs.
  modelcheck::ExploreOptions eo;
  modelcheck::FuzzOptions fo;
  std::string cache_key;
  bool cacheable = false;
  std::string hb_mode;
  std::uint64_t hb_budget = 0;

  if (r.op == "explore" || r.op == "check") {
    auto engine_or = modelcheck::parse_engine(r.engine);
    if (!engine_or.is_ok()) {
      finish_request(req, error_response(r.id, engine_or.status()));
      return;
    }
    auto reduction_or = modelcheck::parse_reduction(r.reduction);
    if (!reduction_or.is_ok()) {
      finish_request(req, error_response(r.id, reduction_or.status()));
      return;
    }
    eo.threads = r.threads;
    eo.engine = engine_or.value();
    eo.reduction = reduction_or.value();
    if (r.max_nodes > 0) eo.max_nodes = r.max_nodes;  // 0 = engine default
    eo.allow_truncation = r.allow_truncation;
    if (r.op == "explore") {
      eo.max_levels = static_cast<std::uint32_t>(r.max_levels);
    }
    eo.checkpoint_label = task.name;
    eo.cancel = &req->cancel;
    eo.deadline = req->deadline;
    hb_mode = modelcheck::reduction_name(eo.reduction);
    hb_budget = eo.max_nodes;
    cache_key = r.op + "|" + r.task + "|threads=" + std::to_string(r.threads) +
                "|engine=" + r.engine + "|max_levels=" +
                std::to_string(r.op == "explore" ? r.max_levels : 0) +
                "|solo=" + std::to_string(r.op == "check" ? r.solo_node_bound
                                                          : 0) +
                "|maxviol=" +
                std::to_string(r.op == "check" ? r.max_violations : 0) +
                "|fp=" +
                hex64(modelcheck::explore_fingerprint(
                    *task.protocol, eo, /*has_flag_fn=*/false,
                    /*initial_flag=*/0));
    cacheable = true;
  } else {  // fuzz
    fo.runs = r.runs;
    fo.seed = r.seed;
    fo.coverage_guided = r.coverage;
    fo.stop_after_runs = r.stop_after_runs;
    fo.checkpoint_path = r.checkpoint_path;
    fo.max_violations = r.max_violations;
    fo.checkpoint_label = task.name;
    fo.cancel = &req->cancel;
    fo.deadline = req->deadline;
    hb_mode = fo.coverage_guided ? "coverage" : "blind";
    hb_budget = fo.runs;
    cache_key =
        "fuzz|" + r.task + "|fp=" +
        hex64(modelcheck::fuzz_fingerprint(*task.protocol, fo));
    // Blind fuzz and checkpoint-writing campaigns are never cached: the
    // first is the conservative line (its report is deterministic per
    // request, but nothing enforces that invariant here), the second has
    // filesystem side effects a replayed response would silently skip.
    cacheable = fo.coverage_guided && fo.checkpoint_path.empty();
  }
  cacheable = cacheable && options_.cache_capacity > 0;

  if (cacheable) {
    std::string hit_line;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_index_.find(cache_key);
      if (it != cache_index_.end()) {
        cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
        ++cache_hits_;
        const CachedResult& hit = cache_lru_.front().second;
        // finish_request relocks mu_; render inside, emit outside.
        hit_line = report_response(r.id, hit.exit_code, /*cached=*/true,
                                   hit.human, hit.report_json);
      } else {
        ++cache_misses_;
      }
    }
    if (!hit_line.empty()) {
      finish_request(req, hit_line);
      return;
    }
  }

  // Per-request heartbeat stream, multiplexed onto the same sink as the
  // final report. The request id is the run_id nonce: concurrent requests
  // for the same (task, budget) stream under distinct run_ids, and a
  // client re-issuing the same logical request gets the same run_id back.
  // The request owns the Progress its engines publish into, so its
  // heartbeats carry its own numbers and no neighbor's.
  std::unique_ptr<obs::Progress> progress;
  std::unique_ptr<obs::HeartbeatSampler> sampler;
  if (r.heartbeat_ms > 0) {
    progress = std::make_unique<obs::Progress>();
    eo.progress = progress.get();
    obs::HeartbeatOptions hb;
    hb.progress = progress.get();
    hb.tool = "lbsa_serverd";
    hb.task = task.name;
    hb.run_id =
        obs::derive_run_id("lbsa_serverd", task.name, hb_mode, hb_budget, r.id);
    hb.interval_ms = r.heartbeat_ms;
    hb.sink = [req](std::string_view line) {
      req->sink(heartbeat_response(req->req.id, line));
    };
    sampler = std::make_unique<obs::HeartbeatSampler>(std::move(hb));
    if (const Status s = sampler->start(); !s.is_ok()) {
      finish_request(req, error_response(r.id, s));
      return;
    }
  }

  modelcheck::TaskRunResult result;
  if (r.op == "explore") {
    modelcheck::ExploreTaskSpec spec;
    spec.options = std::move(eo);
    result = modelcheck::run_explore_task(task, spec);
  } else if (r.op == "check") {
    modelcheck::CheckTaskSpec spec;
    spec.options.explore = std::move(eo);
    spec.options.solo_node_bound = r.solo_node_bound;
    spec.options.max_violations = r.max_violations;
    result = modelcheck::run_check_task(task, spec);
  } else {
    modelcheck::FuzzTaskSpec spec;
    spec.options = std::move(fo);
    modelcheck::FuzzTaskRunResult fuzz = modelcheck::run_fuzz_task(task, spec);
    result = std::move(static_cast<modelcheck::TaskRunResult&>(fuzz));
  }

  // The final heartbeat line ("final":true) lands before the report line,
  // so the report is always the request's last response.
  if (sampler != nullptr) {
    if (const Status s = sampler->stop(); !s.is_ok()) {
      // The workload finished; a heartbeat teardown problem must not turn
      // the answer into an error. Drop the stream error on the floor.
    }
  }

  if (!result.report_valid) {
    const Status status =
        result.exit_code == 2 ? invalid_argument(result.error)
                              : internal_error(result.error);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++requests_rejected_;
    }
    finish_request(req, error_response(r.id, status));
    return;
  }

  // Deterministic serialization: no wall-clock, no process-wide metrics
  // registry (which concurrent requests would cross-pollute) — a cache hit
  // must replay these bytes exactly.
  result.report.tool = "lbsa_serverd";
  result.report.wall_seconds = 0.0;
  const std::string report_json = result.report.to_json();

  // Interrupted runs (exit 4: deadline/cancel tripped mid-flight) are
  // lifecycle artifacts of THIS request, not properties of the task —
  // never cached.
  if (cacheable && result.exit_code != 4) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cache_index_.find(cache_key) == cache_index_.end()) {
      cache_lru_.emplace_front(
          cache_key,
          CachedResult{result.exit_code, result.human, report_json});
      cache_index_[cache_key] = cache_lru_.begin();
      while (cache_lru_.size() > options_.cache_capacity) {
        cache_index_.erase(cache_lru_.back().first);
        cache_lru_.pop_back();
      }
    }
  }

  finish_request(req,
                 report_response(r.id, result.exit_code, /*cached=*/false,
                                 result.human, report_json));
}

std::string CheckService::stats_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::JsonWriter w;
  w.begin_object();
  w.key("requests_total");
  w.value_uint(requests_total_);
  w.key("by_op");
  w.begin_object();
  w.key("check");
  w.value_uint(requests_check_);
  w.key("explore");
  w.value_uint(requests_explore_);
  w.key("fuzz");
  w.value_uint(requests_fuzz_);
  w.end_object();
  w.key("rejected");
  w.value_uint(requests_rejected_);
  w.key("cancelled");
  w.value_uint(cancelled_);
  w.key("active");
  w.value_uint(active_.size());
  w.key("queued");
  w.value_uint(queue_.size());
  w.key("cache");
  w.begin_object();
  w.key("hits");
  w.value_uint(cache_hits_);
  w.key("misses");
  w.value_uint(cache_misses_);
  w.key("entries");
  w.value_uint(cache_lru_.size());
  w.key("capacity");
  w.value_uint(options_.cache_capacity);
  w.end_object();
  const obs::HistogramQuantiles q =
      obs::quantiles_from_buckets(latency_buckets_, latency_count_);
  w.key("latency_us");
  w.begin_object();
  w.key("count");
  w.value_uint(latency_count_);
  w.key("p50");
  w.value_uint(q.p50);
  w.key("p90");
  w.value_uint(q.p90);
  w.key("p99");
  w.value_uint(q.p99);
  w.key("max");
  w.value_uint(q.max);
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

void CheckService::shutdown() {
  std::deque<std::shared_ptr<Request>> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (quit_ && workers_.empty()) return;
    quit_ = true;
    orphans.swap(queue_);
    cv_.notify_all();
  }
  for (const auto& req : orphans) {
    finish_request(req,
                   error_response(req->req.id, failed_precondition(
                                      "serve: server is shutting down")));
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

}  // namespace lbsa::serve
