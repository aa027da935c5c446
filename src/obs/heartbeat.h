// Live run telemetry (docs/observability.md, "Heartbeats"): a sampler that
// appends one strict-JSON line per tick to a JSONL stream while a run is in
// flight, plus the per-run Progress object the exploration engines publish
// into and the sampler reads.
//
// The heartbeat stream is the push counterpart of the pull-style RunReport:
// a RunReport describes a finished run, a heartbeat stream describes a run
// *while it happens* — levels completed, frontier size, rolling nodes/sec,
// an ETA once the frontier is draining, checkpoint writes, and per-worker
// utilization (busy flag, nodes expanded, steals, intern CAS retries).
// `tools/lbsa_watch` tails the stream; `report_check heartbeat` validates
// it (strict JSON per line, contiguous sequence numbers, non-decreasing
// cumulative counters, constant run_id).
//
// Continuity across checkpoint/resume: the run_id is derived from the
// stable run inputs (derive_run_id), so a resumed run appending to the same
// stream produces a verifiable continuation — the sampler picks up the
// sequence numbering after the last line, and the engine starts the resumed
// run's Progress at the checkpoint's totals so nodes_total/transitions_total
// stay monotone across the splice. uptime_ms and checkpoint_writes are
// per-session and intentionally excluded from the monotonicity checks.
#ifndef LBSA_OBS_HEARTBEAT_H_
#define LBSA_OBS_HEARTBEAT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/status.h"
#include "obs/json.h"

namespace lbsa::obs {

inline constexpr int kHeartbeatSchemaVersion = 1;
inline constexpr int kHeartbeatSummarySchemaVersion = 1;

// Per-worker utilization slots published by the work-stealing engine. A
// fixed cap keeps the slots allocation-free and index-stable for samplers.
inline constexpr int kProgressMaxWorkers = 64;

// Live state of one run, owned by whoever owns the run (an ObsCli, a server
// request, a test), written by the engines at quiescence points
// (ExploreOptions::progress) and read by the sampler thread
// (HeartbeatOptions::progress). nodes_total and transitions_total are
// CUMULATIVE: each publisher adds what it did since its last publish, so
// work-stealing workers and runs sharing one object (a sweep's cells)
// compose, and the values never decrease — the invariant `report_check
// heartbeat` enforces. They equal a complete run's graph totals.
// levels_completed and frontier_size are gauges of the current exploration.
class Progress {
 public:
  struct WorkerSlot {
    std::atomic<std::uint64_t> busy{0};      // 1 while expanding a chunk
    std::atomic<std::uint64_t> expanded{0};  // nodes expanded (this engine)
    std::atomic<std::uint64_t> steals{0};    // work-stealing only
    std::atomic<std::uint64_t> cas_retries{0};  // intern CAS retries
  };

  std::atomic<std::uint64_t> nodes_total{0};
  std::atomic<std::uint64_t> transitions_total{0};
  std::atomic<std::uint64_t> levels_completed{0};
  std::atomic<std::uint64_t> frontier_size{0};
  std::atomic<std::uint64_t> checkpoint_writes{0};

  // Publishes the pool size for the sampler's workers array and clears the
  // busy flags; cumulative per-slot counters are left alone (they are
  // per-worker gauges, not monotone-checked).
  void configure_workers(int n);
  int worker_count() const {
    return static_cast<int>(worker_count_.load(std::memory_order_acquire));
  }
  // nullptr when i is outside [0, min(worker_count, kProgressMaxWorkers)).
  const WorkerSlot* worker(int i) const;
  WorkerSlot* worker(int i) {
    return const_cast<WorkerSlot*>(std::as_const(*this).worker(i));
  }

 private:
  std::atomic<std::uint32_t> worker_count_{0};
  WorkerSlot slots_[kProgressMaxWorkers];
};

// Deterministic run identity from the stable run inputs (16 hex chars).
// Engine and thread count are deliberately excluded — the same task
// explored by any engine is the same run — and a resume passes the same
// inputs (enforced by the checkpoint fingerprint for the explorer), so the
// id survives checkpoint/resume.
//
// `nonce` disambiguates otherwise-identical runs sharing one stream
// namespace: two concurrent server requests for the same (task, budget)
// would collide without it and validate_heartbeat_stream would conflate
// their streams. The caller keeps the nonce stable across checkpoint/
// resume of the same logical request so continuation still works. An
// empty nonce is not hashed, so ids from pre-nonce callers are unchanged.
std::string derive_run_id(std::string_view tool, std::string_view task,
                          std::string_view mode, std::uint64_t budget,
                          std::string_view nonce = {});

struct HeartbeatOptions {
  // The run's live state, sampled on every tick (non-owning, required; must
  // outlive the sampler).
  const Progress* progress = nullptr;
  std::string path;  // JSONL stream, opened in append mode
  std::string tool;
  std::string task;
  std::string run_id;                 // derive_run_id(...)
  std::uint64_t interval_ms = 1000;   // background-thread tick interval
  // Injectable monotonic clock (milliseconds); tests pin this to a fake so
  // tick contents are deterministic. Defaults to steady_clock.
  std::function<std::uint64_t()> clock_ms;
  // When set, each heartbeat line (strict JSON, no trailing newline) goes
  // to this callback instead of a file and `path` is ignored — the server
  // frames lines onto client sockets this way. The sink is invoked under
  // the sampler's tick lock, so it must not re-enter the sampler; there is
  // no continuation check (the caller owns the transport's history).
  std::function<void(std::string_view)> sink;
};

// Appends one strict-JSON heartbeat line per tick. Two driving modes:
// manual tick() for deterministic tests, or start()/stop() for a real
// background sampling thread. stop() always appends a final line with
// "final":true — the signal lbsa_watch exits on.
class HeartbeatSampler {
 public:
  explicit HeartbeatSampler(HeartbeatOptions options);
  ~HeartbeatSampler();

  // Opens the stream. If the file already holds heartbeat lines, the last
  // line must carry the same run_id (FAILED_PRECONDITION otherwise) and
  // sequence numbering continues after it — the checkpoint/resume splice.
  // INVALID_ARGUMENT without a Progress to sample.
  Status open();
  // Samples Progress + the metrics Registry and appends one line.
  void tick() { write_tick(false); }
  // open() + a background thread ticking every interval_ms.
  Status start();
  // Joins the thread (if any), appends the final line, closes the stream.
  // Idempotent.
  Status stop();

  // Captured timeseries, for the RunReport v2 "timeseries" section.
  struct Tick {
    std::uint64_t uptime_ms = 0;
    std::uint64_t nodes_total = 0;
    std::uint64_t frontier_size = 0;
    double nodes_per_sec = 0.0;
  };
  const std::vector<Tick>& ticks() const { return ticks_; }
  const std::string& run_id() const { return options_.run_id; }
  std::uint64_t interval_ms() const { return options_.interval_ms; }
  bool opened() const { return file_ != nullptr || sink_open_; }

 private:
  void write_tick(bool final);
  void thread_main();

  HeartbeatOptions options_;
  std::FILE* file_ = nullptr;
  bool sink_open_ = false;  // sink-mode stream is live
  std::uint64_t next_seq_ = 0;
  std::uint64_t start_ms_ = 0;
  std::vector<Tick> ticks_;  // manual + timed ticks, excludes the final line
  // Rolling window for nodes/sec and the frontier-trend ETA.
  struct Sample {
    std::uint64_t t_ms = 0;
    std::uint64_t nodes = 0;
    std::uint64_t frontier = 0;
  };
  std::vector<Sample> window_;  // last <= 8 samples
  std::mutex mu_;               // serializes tick()/stop() vs the thread
  std::thread thread_;
  bool running_ = false;
  bool stopped_ = false;
  std::condition_variable cv_;
  bool quit_ = false;
};

// Checks a heartbeat stream one parsed line at a time: each line must carry
// the required field set with heartbeat_version == 1, and continue the
// lines fed before it — constant run_id/tool/task, sequence numbers
// contiguous (+1 per line; the first line may start anywhere — a tail is a
// valid stream), and cumulative counters (nodes_total, transitions_total)
// non-decreasing. "final":true lines may appear mid-stream: a resumed run
// appends after its predecessor's final line. lbsa_watch feeds a live tail
// through this; validate_heartbeat_stream feeds a whole stream.
class HeartbeatStreamChecker {
 public:
  Status feed(const JsonValue& line);

  // What the accepted lines add up to (meaningful once ticks > 0).
  struct Digest {
    std::uint64_t ticks = 0;
    std::string run_id;
    std::string tool;
    std::string task;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t nodes_total = 0;
    std::uint64_t transitions_total = 0;
    std::uint64_t levels_completed = 0;
    double max_nodes_per_sec = 0.0;
    bool final_seen = false;
  };
  const Digest& digest() const { return digest_; }
  // The digest as an lbsa_watch --summary-json document.
  std::string summary_json() const;

 private:
  Digest digest_;
};

// Validates a heartbeat JSONL stream: every non-blank line strict JSON and
// accepted by one HeartbeatStreamChecker, and at least one line.
Status validate_heartbeat_stream(std::string_view text);

// Validates an lbsa_watch --summary-json digest.
Status validate_heartbeat_summary_json(std::string_view json);

// Dispatch for `report_check heartbeat FILE`: a single JSON object with
// heartbeat_summary_version is checked as a digest, anything else as a
// JSONL stream.
Status validate_heartbeat_file(std::string_view text);

}  // namespace lbsa::obs

#endif  // LBSA_OBS_HEARTBEAT_H_
