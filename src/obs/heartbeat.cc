#include "obs/heartbeat.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/hashing.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/schema.h"

namespace lbsa::obs {

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

void Progress::configure_workers(int n) {
  if (n < 0) n = 0;
  if (n > kProgressMaxWorkers) n = kProgressMaxWorkers;
  for (int i = 0; i < n; ++i) {
    slots_[i].busy.store(0, std::memory_order_relaxed);
  }
  worker_count_.store(static_cast<std::uint32_t>(n),
                      std::memory_order_release);
}

const Progress::WorkerSlot* Progress::worker(int i) const {
  if (i < 0 || i >= worker_count() || i >= kProgressMaxWorkers) return nullptr;
  return &slots_[i];
}

// ---------------------------------------------------------------------------
// run_id
// ---------------------------------------------------------------------------

namespace {

std::uint64_t hash_string(std::uint64_t h, std::string_view s) {
  h = hash_combine(h, s.size());
  for (char c : s) {
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace

std::string derive_run_id(std::string_view tool, std::string_view task,
                          std::string_view mode, std::uint64_t budget,
                          std::string_view nonce) {
  std::uint64_t h = 0x1b5a0b5eULL;  // arbitrary fixed seed
  h = hash_string(h, tool);
  h = hash_string(h, task);
  h = hash_string(h, mode);
  h = hash_combine(h, budget);
  // Empty nonce folds in nothing: ids minted before the nonce existed (and
  // checkpoints carrying them) keep resolving to the same stream.
  if (!nonce.empty()) h = hash_string(h, nonce);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return std::string(hex);
}

// ---------------------------------------------------------------------------
// HeartbeatSampler
// ---------------------------------------------------------------------------

namespace {

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Last non-empty line of `text` (without the trailing newline).
std::string_view last_line(std::string_view text) {
  std::size_t end = text.size();
  while (end > 0 && (text[end - 1] == '\n' || text[end - 1] == '\r')) --end;
  if (end == 0) return {};
  std::size_t begin = text.rfind('\n', end - 1);
  begin = begin == std::string_view::npos ? 0 : begin + 1;
  return text.substr(begin, end - begin);
}

}  // namespace

HeartbeatSampler::HeartbeatSampler(HeartbeatOptions options)
    : options_(std::move(options)) {
  if (!options_.clock_ms) options_.clock_ms = steady_now_ms;
  if (options_.interval_ms == 0) options_.interval_ms = 1000;
}

HeartbeatSampler::~HeartbeatSampler() { (void)stop(); }

Status HeartbeatSampler::open() {
  if (options_.progress == nullptr) {
    return invalid_argument("heartbeat: no Progress to sample");
  }
  if (options_.sink) {
    // Sink mode: lines go to the callback, no file, no continuation check
    // (the caller owns the transport and its history).
    if (sink_open_) return Status::ok();
    sink_open_ = true;
    start_ms_ = options_.clock_ms();
    return Status::ok();
  }
  if (options_.path.empty()) {
    return invalid_argument("heartbeat: empty output path");
  }
  if (file_ != nullptr) return Status::ok();
  // Continuation check: an existing stream must belong to the same run.
  {
    std::ifstream in(options_.path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string existing = buffer.str();
      const std::string_view tail = last_line(existing);
      if (!tail.empty()) {
        constexpr FieldSpec kResumeFields[] = {
            {.name = "run_id"}, {.name = "seq", .kind = FieldKind::kUint}};
        auto parsed = parse_json(tail);
        if (!parsed.is_ok() ||
            !check_fields(parsed.value(), kResumeFields, SchemaPath("resume"))
                 .is_ok()) {
          return failed_precondition(
              "heartbeat: '" + options_.path +
              "' exists but its last line is not a heartbeat (refusing to "
              "append a new stream onto it)");
        }
        const JsonValue* run_id = parsed.value().find("run_id");
        const JsonValue* seq = parsed.value().find("seq");
        if (run_id->string_value != options_.run_id) {
          return failed_precondition(
              "heartbeat: '" + options_.path + "' belongs to run " +
              run_id->string_value + ", not " + options_.run_id +
              " (a stream is appendable only by the same resumed run)");
        }
        next_seq_ = seq->uint_value + 1;
      }
    }
  }
  file_ = std::fopen(options_.path.c_str(), "ab");
  if (file_ == nullptr) {
    return internal_error("heartbeat: cannot open '" + options_.path +
                          "' for append");
  }
  start_ms_ = options_.clock_ms();
  return Status::ok();
}

void HeartbeatSampler::write_tick(bool final) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr && !sink_open_) return;
  const std::uint64_t now = options_.clock_ms();
  const std::uint64_t uptime = now >= start_ms_ ? now - start_ms_ : 0;

  const Progress& progress = *options_.progress;
  const std::uint64_t nodes =
      progress.nodes_total.load(std::memory_order_relaxed);
  const std::uint64_t transitions =
      progress.transitions_total.load(std::memory_order_relaxed);
  const std::uint64_t levels =
      progress.levels_completed.load(std::memory_order_relaxed);
  const std::uint64_t frontier =
      progress.frontier_size.load(std::memory_order_relaxed);
  const std::uint64_t checkpoints =
      progress.checkpoint_writes.load(std::memory_order_relaxed);

  // Rolling nodes/sec against the oldest sample in the window; the
  // frontier-trend ETA is defined only while the frontier is draining.
  double nodes_per_sec = 0.0;
  bool have_eta = false;
  double eta_s = 0.0;
  if (!window_.empty()) {
    const Sample& oldest = window_.front();
    if (now > oldest.t_ms) {
      const double dt_s = static_cast<double>(now - oldest.t_ms) / 1000.0;
      if (nodes >= oldest.nodes) {
        nodes_per_sec = static_cast<double>(nodes - oldest.nodes) / dt_s;
      }
      if (oldest.frontier > frontier) {
        const double drain_per_s =
            static_cast<double>(oldest.frontier - frontier) / dt_s;
        have_eta = true;
        eta_s = static_cast<double>(frontier) / drain_per_s;
      }
    }
  }
  window_.push_back(Sample{now, nodes, frontier});
  if (window_.size() > 8) window_.erase(window_.begin());

  JsonWriter w;
  w.begin_object();
  w.key("heartbeat_version");
  w.value_int(kHeartbeatSchemaVersion);
  w.key("run_id");
  w.value_string(options_.run_id);
  w.key("tool");
  w.value_string(options_.tool);
  w.key("task");
  w.value_string(options_.task);
  w.key("seq");
  w.value_uint(next_seq_);
  w.key("uptime_ms");
  w.value_uint(uptime);
  w.key("interval_ms");
  w.value_uint(options_.interval_ms);
  w.key("nodes_total");
  w.value_uint(nodes);
  w.key("transitions_total");
  w.value_uint(transitions);
  w.key("levels_completed");
  w.value_uint(levels);
  w.key("frontier_size");
  w.value_uint(frontier);
  w.key("checkpoint_writes");
  w.value_uint(checkpoints);
  w.key("nodes_per_sec");
  w.value_double(nodes_per_sec);
  w.key("eta_s");
  if (have_eta) {
    w.value_double(eta_s);
  } else {
    w.value_raw("null");
  }
  w.key("workers");
  w.begin_array();
  const int workers = progress.worker_count();
  for (int i = 0; i < workers; ++i) {
    const Progress::WorkerSlot* slot = progress.worker(i);
    if (slot == nullptr) break;
    w.begin_object();
    w.key("busy");
    w.value_uint(slot->busy.load(std::memory_order_relaxed));
    w.key("expanded");
    w.value_uint(slot->expanded.load(std::memory_order_relaxed));
    w.key("steals");
    w.value_uint(slot->steals.load(std::memory_order_relaxed));
    w.key("cas_retries");
    w.value_uint(slot->cas_retries.load(std::memory_order_relaxed));
    w.end_object();
  }
  w.end_array();
  // The stable registry rows (schedule-independent names and, at
  // quiescence, values); histograms are compressed to their quantiles —
  // the full bucket arrays stay in the RunReport.
  const MetricsSnapshot snap = Registry::global().snapshot();
  w.key("metrics");
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& row : snap.counters) {
    if (row.stability != Stability::kStable) continue;
    w.key(row.name);
    w.value_uint(row.value);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& row : snap.gauges) {
    if (row.stability != Stability::kStable) continue;
    w.key(row.name);
    w.value_int(row.value);
  }
  w.end_object();
  w.key("quantiles");
  w.begin_object();
  for (const auto& row : snap.histograms) {
    if (row.stability != Stability::kStable) continue;
    w.key(row.name);
    w.begin_object();
    w.key("p50");
    w.value_uint(row.quantiles.p50);
    w.key("p90");
    w.value_uint(row.quantiles.p90);
    w.key("p99");
    w.value_uint(row.quantiles.p99);
    w.key("max");
    w.value_uint(row.quantiles.max);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  w.key("final");
  w.value_bool(final);
  w.end_object();

  const std::string line = std::move(w).str();
  if (sink_open_) {
    options_.sink(line);
  } else {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
  }

  if (!final) {
    ticks_.push_back(Tick{uptime, nodes, frontier, nodes_per_sec});
  }
  ++next_seq_;
}

void HeartbeatSampler::thread_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!quit_) {
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(options_.interval_ms);
    cv_.wait_until(lock, wake, [&] { return quit_; });
    if (quit_) return;
    lock.unlock();
    write_tick(false);
    lock.lock();
  }
}

Status HeartbeatSampler::start() {
  if (const Status s = open(); !s.is_ok()) return s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return Status::ok();
    running_ = true;
    quit_ = false;
  }
  thread_ = std::thread([this] { thread_main(); });
  return Status::ok();
}

Status HeartbeatSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Status::ok();
    quit_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (file_ != nullptr || sink_open_) {
    write_tick(true);
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ != nullptr) std::fclose(file_);
    file_ = nullptr;
    sink_open_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    running_ = false;
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Validators
// ---------------------------------------------------------------------------

namespace {

using K = FieldKind;

constexpr FieldSpec kHeartbeatFields[] = {
    {.name = "heartbeat_version", .kind = K::kInt,
     .min = kHeartbeatSchemaVersion, .max = kHeartbeatSchemaVersion},
    {.name = "run_id", .kind = K::kNonEmptyString},
    {.name = "tool"},
    {.name = "task"},
    {.name = "seq", .kind = K::kUint},
    {.name = "uptime_ms", .kind = K::kUint},
    {.name = "interval_ms", .kind = K::kUint},
    {.name = "nodes_total", .kind = K::kUint},
    {.name = "transitions_total", .kind = K::kUint},
    {.name = "levels_completed", .kind = K::kUint},
    {.name = "frontier_size", .kind = K::kUint},
    {.name = "checkpoint_writes", .kind = K::kUint},
    {.name = "nodes_per_sec", .kind = K::kNumber},
    {.name = "eta_s", .kind = K::kNumberOrNull},
    {.name = "workers", .kind = K::kArray},
    {.name = "metrics", .kind = K::kObject},
    {.name = "final", .kind = K::kBool},
};

constexpr FieldSpec kWorkerFields[] = {
    {.name = "busy", .kind = K::kUint},
    {.name = "expanded", .kind = K::kUint},
    {.name = "steals", .kind = K::kUint},
    {.name = "cas_retries", .kind = K::kUint},
};

constexpr FieldSpec kSummaryFields[] = {
    {.name = "heartbeat_summary_version", .kind = K::kInt,
     .min = kHeartbeatSummarySchemaVersion,
     .max = kHeartbeatSummarySchemaVersion},
    {.name = "run_id", .kind = K::kNonEmptyString},
    {.name = "tool"},
    {.name = "task"},
    {.name = "ticks", .kind = K::kInt, .min = 1},
    {.name = "first_seq", .kind = K::kUint},
    {.name = "last_seq", .kind = K::kUint},
    {.name = "nodes_total", .kind = K::kUint},
    {.name = "transitions_total", .kind = K::kUint},
    {.name = "levels_completed", .kind = K::kUint},
    {.name = "max_nodes_per_sec", .kind = K::kNumber},
    {.name = "final_seen", .kind = K::kBool},
};

std::string line_schema(std::uint64_t line_no) {
  return "heartbeat stream: line " + std::to_string(line_no);
}

}  // namespace

Status HeartbeatStreamChecker::feed(const JsonValue& line) {
  Digest& d = digest_;
  const std::string schema = line_schema(d.ticks + 1);
  const SchemaPath path(schema);
  LBSA_RETURN_IF_ERROR(check_fields(line, kHeartbeatFields, path));
  LBSA_RETURN_IF_ERROR(check_array_of(*line.find("workers"), K::kObject,
                                      path.field("workers"), kWorkerFields));
  const std::string& run_id = line.find("run_id")->string_value;
  const std::string& tool = line.find("tool")->string_value;
  const std::string& task = line.find("task")->string_value;
  const std::uint64_t seq = line.find("seq")->uint_value;
  const std::uint64_t nodes = line.find("nodes_total")->uint_value;
  const std::uint64_t transitions =
      line.find("transitions_total")->uint_value;
  if (d.ticks == 0) {
    d.run_id = run_id;
    d.tool = tool;
    d.task = task;
    d.first_seq = seq;
  } else {
    if (run_id != d.run_id) return path.error("run_id", "changed mid-stream");
    if (tool != d.tool) return path.error("tool", "changed mid-stream");
    if (task != d.task) return path.error("task", "changed mid-stream");
    if (seq != d.last_seq + 1) {
      return path.error("seq", std::to_string(seq) +
                                   " out of order (expected " +
                                   std::to_string(d.last_seq + 1) + ")");
    }
    if (nodes < d.nodes_total || transitions < d.transitions_total) {
      return path.error(nodes < d.nodes_total ? "nodes_total"
                                              : "transitions_total",
                        "decreased (cumulative counters must be "
                        "non-decreasing)");
    }
  }
  ++d.ticks;
  d.last_seq = seq;
  d.nodes_total = nodes;
  d.transitions_total = transitions;
  d.levels_completed = line.find("levels_completed")->uint_value;
  d.max_nodes_per_sec = std::max(d.max_nodes_per_sec,
                                 line.find("nodes_per_sec")->number_value);
  d.final_seen = d.final_seen || line.find("final")->bool_value;
  return Status::ok();
}

std::string HeartbeatStreamChecker::summary_json() const {
  const Digest& d = digest_;
  JsonWriter w;
  w.begin_object();
  w.key("heartbeat_summary_version");
  w.value_int(kHeartbeatSummarySchemaVersion);
  for (const auto& [key, value] :
       {std::pair{"run_id", &d.run_id}, {"tool", &d.tool}, {"task", &d.task}}) {
    w.key(key);
    w.value_string(*value);
  }
  for (const auto& [key, value] :
       {std::pair{"ticks", d.ticks}, {"first_seq", d.first_seq},
        {"last_seq", d.last_seq}, {"nodes_total", d.nodes_total},
        {"transitions_total", d.transitions_total},
        {"levels_completed", d.levels_completed}}) {
    w.key(key);
    w.value_uint(value);
  }
  w.key("max_nodes_per_sec");
  w.value_double(d.max_nodes_per_sec);
  w.key("final_seen");
  w.value_bool(d.final_seen);
  w.end_object();
  return std::move(w).str();
}

Status validate_heartbeat_stream(std::string_view text) {
  HeartbeatStreamChecker checker;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    auto parsed = parse_json(line);
    if (!parsed.is_ok()) {
      return invalid_argument(line_schema(checker.digest().ticks + 1) +
                              ": not strict JSON: " +
                              parsed.status().message());
    }
    LBSA_RETURN_IF_ERROR(checker.feed(parsed.value()));
  }
  if (checker.digest().ticks == 0) {
    return invalid_argument("heartbeat stream: no heartbeat lines");
  }
  return Status::ok();
}

Status validate_heartbeat_summary_json(std::string_view json) {
  auto parsed = parse_json(json);
  if (!parsed.is_ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  const SchemaPath path("heartbeat summary");
  LBSA_RETURN_IF_ERROR(check_fields(root, kSummaryFields, path));
  if (root.find("last_seq")->uint_value < root.find("first_seq")->uint_value) {
    return path.error("last_seq", "< first_seq");
  }
  return Status::ok();
}

Status validate_heartbeat_file(std::string_view text) {
  // A digest is a single JSON object carrying heartbeat_summary_version;
  // anything else must validate as a JSONL stream.
  if (auto parsed = parse_json(text); parsed.is_ok() &&
      parsed.value().is_object() &&
      parsed.value().find("heartbeat_summary_version") != nullptr) {
    return validate_heartbeat_summary_json(text);
  }
  return validate_heartbeat_stream(text);
}

}  // namespace lbsa::obs
