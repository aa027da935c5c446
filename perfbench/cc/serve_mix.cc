// serve-mix: an open-loop client for one lbsa_serverd over 4 pipelined
// AF_UNIX connections. Requests are due at evenly spaced times; each is
// timed from its due time (not its send time) to its final report line, so
// a stall delays every request due during it. Raw due/send/receive stamps
// go to --samples-out; perfbench/stats.py turns them into percentiles.
#include "serve_mix.h"

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "modelcheck/corpus.h"
#include "modelcheck/run_task.h"
#include "obs/json.h"
#include "obs/report.h"

namespace lbsa_bench {

namespace mc = lbsa::modelcheck;
namespace serve = lbsa::serve;

std::vector<std::string> warm_lines() {
  const char* shapes[kShapes][2] = {{"dac3", "none"},
                                    {"dac4-sym", "symmetry"},
                                    {"consensus5", "none"},
                                    {"dac5-sym", "symmetry"}};
  std::vector<std::string> lines;
  for (int i = 0; i < kShapes; ++i) {
    lines.push_back(std::string("{\"serve_version\":1,\"op\":\"check\",") +
                    "\"id\":\"warm-" + std::to_string(i) + "\",\"task\":\"" +
                    shapes[i][0] + "\",\"reduction\":\"" + shapes[i][1] +
                    "\"}");
  }
  return lines;
}

std::vector<MixRequest> make_mix(std::uint64_t seed, std::size_t count,
                                 const std::string& id_prefix) {
  // Every block of kBlock consecutive requests holds exactly kBlockHits
  // hits, kBlockCoverage coverage fuzzes and the rest blind fuzzes, in a
  // seeded order. With a fixed share of each kind, the median falls at the
  // same rank inside the coverage-fuzz latencies in every repetition; with
  // a drawn share it would wander with the draw, and at half hits it would
  // sit on the step between hit (~0.2 ms) and fuzz (~3 ms) latencies.
  // Blind fuzzes are the slowest requests (~20 ms), so their share sets
  // where p99 falls: at 5% it is their 80th percentile, at 15% their 93rd,
  // which moves with every burst of host contention.
  constexpr std::size_t kBlock = 20;
  constexpr std::size_t kBlockHits = 6;
  constexpr std::size_t kBlockCoverage = 13;
  SeededRng rng(seed);
  const std::vector<std::string> warm = warm_lines();
  std::vector<MixKind> kinds;
  std::vector<MixRequest> mix(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kBlock == 0) {
      kinds.assign(kBlock, MixKind::kBlind);
      std::fill_n(kinds.begin(), kBlockHits + kBlockCoverage,
                  MixKind::kCoverage);
      std::fill_n(kinds.begin(), kBlockHits, MixKind::kHit);
      for (std::size_t j = kBlock - 1; j > 0; --j) {  // Fisher-Yates
        std::swap(kinds[j], kinds[rng.next() % (j + 1)]);
      }
    }
    MixRequest& r = mix[i];
    r.id = id_prefix + std::to_string(i);
    r.kind = kinds[i % kBlock];
    if (r.kind == MixKind::kHit) {
      r.shape = static_cast<int>(rng.next() % kShapes);
      std::string line = warm[static_cast<std::size_t>(r.shape)];
      const std::string old_id =
          "\"id\":\"warm-" + std::to_string(r.shape) + "\"";
      line.replace(line.find(old_id), old_id.size(),
                   "\"id\":\"" + r.id + "\"");
      r.line = std::move(line);
      continue;
    }
    const bool coverage = r.kind == MixKind::kCoverage;
    const std::uint64_t campaign_seed = rng.next() >> 1;  // fresh per request
    r.line = std::string("{\"serve_version\":1,\"op\":\"fuzz\",\"id\":\"") +
             r.id + "\",\"task\":\"" + (coverage ? "dac3" : "dac5") +
             "\",\"runs\":" + (coverage ? "200" : "500") +
             ",\"seed\":" + std::to_string(campaign_seed) +
             ",\"coverage\":" + (coverage ? "true" : "false") + "}";
  }
  return mix;
}

mc::FuzzTaskRunResult run_fuzz_request(const MixRequest& request) {
  mc::FuzzTaskRunResult result;
  result.exit_code = 2;
  auto req_or = serve::parse_request(request.line);
  if (!req_or.is_ok()) {
    result.error = req_or.status().to_string();
    return result;
  }
  const serve::ServeRequest& r = req_or.value();
  auto task_or = mc::make_named_task(r.task);
  if (!task_or.is_ok()) {
    result.error = task_or.status().to_string();
    return result;
  }
  // The knobs CheckService copies from a fuzz request.
  mc::FuzzTaskSpec spec;
  spec.options.runs = r.runs;
  spec.options.seed = r.seed;
  spec.options.coverage_guided = r.coverage;
  spec.options.stop_after_runs = r.stop_after_runs;
  spec.options.max_violations = r.max_violations;
  spec.options.checkpoint_label = task_or.value().name;
  return mc::run_fuzz_task(task_or.value(), spec);
}

std::string fresh_report_line(const std::string& request_id,
                              mc::TaskRunResult result) {
  result.report.tool = "lbsa_serverd";
  result.report.wall_seconds = 0.0;
  return serve::report_response(request_id, result.exit_code,
                                /*cached=*/false, result.human,
                                result.report.to_json());
}

std::string check_report(const std::string& request_id,
                         const serve::ServeResponse& response) {
  if (response.type != "report") {
    return request_id + ": " + response.type + " " + response.status_code +
           " " + response.message;
  }
  if (response.exit_code != 0) {
    return request_id + ": exit " + std::to_string(response.exit_code);
  }
  if (const lbsa::Status s = lbsa::obs::validate_run_report_json(response.data);
      !s.is_ok()) {
    return request_id + ": " + s.to_string();
  }
  return "";
}

std::string check_response(const MixRequest& request,
                           const serve::ServeResponse& response,
                           const serve::ServeResponse& reference) {
  if (std::string e = check_report(request.id, response); !e.empty()) {
    return e;
  }
  if (request.kind != MixKind::kHit) return "";
  if (response.data != reference.data || response.human != reference.human) {
    return request.id + ": differs from its shape's first answer";
  }
  if (!response.cached) return request.id + ": repeated shape not cached";
  return "";
}

namespace {

// One pipelined connection: the generator writes, a reader thread stamps
// each final response line with its arrival time.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool open(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  // Called with the final (non-heartbeat) line of a request and its
  // arrival time.
  using OnLine = std::function<void(std::string line, std::uint64_t t_ns)>;
  void start_reader(OnLine on_line) {
    reader_ = std::thread([this, on_line = std::move(on_line)] {
      std::string buf;
      char chunk[1 << 16];
      for (;;) {
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return;
        }
        const std::uint64_t t = now_ns();
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t pos = 0;
        for (std::size_t nl; (nl = buf.find('\n', pos)) != std::string::npos;
             pos = nl + 1) {
          on_line(buf.substr(pos, nl - pos), t);
        }
        buf.erase(0, pos);
      }
    });
  }

  bool send_line(const std::string& line) {
    std::string framed = line + "\n";
    const char* p = framed.data();
    std::size_t left = framed.size();
    while (left > 0) {
      const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::thread reader_;
};

struct Sample {
  std::uint64_t due = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::string line;
};

struct Phase {
  std::uint64_t rate = 0;      // requests per second
  std::uint64_t requests = 0;  // due at evenly spaced times
};

std::vector<Phase> parse_phases(const std::string& spec) {
  std::vector<Phase> phases;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    Phase p;
    if (std::sscanf(item.c_str(), "%lu:%lu", &p.rate, &p.requests) != 2 ||
        p.rate == 0 || p.requests == 0) {
      return {};
    }
    phases.push_back(p);
    pos = end + 1;
  }
  return phases;
}

// Demultiplexes response lines by request id onto the samples table.
class Collector {
 public:
  void expect(const std::string& id, Sample* sample) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_[id] = sample;
  }
  void on_line(std::string line, std::uint64_t t) {
    auto parsed = serve::parse_response(line);
    std::lock_guard<std::mutex> lock(mu_);
    if (!parsed.is_ok() || parsed.value().type == "heartbeat") {
      if (!parsed.is_ok()) stray_.push_back(std::move(line));
      return;
    }
    auto it = pending_.find(parsed.value().request_id);
    if (it == pending_.end()) {
      stray_.push_back(std::move(line));
      return;
    }
    it->second->received = t;
    it->second->line = std::move(line);
    pending_.erase(it);
    cv_.notify_all();
  }
  // Waits until nothing is pending or `deadline_ns` passes; true iff
  // everything arrived.
  bool drain(std::uint64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!pending_.empty()) {
      const std::uint64_t now = now_ns();
      if (now >= deadline_ns) return false;
      cv_.wait_for(lock, std::chrono::nanoseconds(deadline_ns - now));
    }
    return true;
  }
  std::vector<std::string> stray() {
    std::lock_guard<std::mutex> lock(mu_);
    return stray_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Sample*> pending_;
  std::vector<std::string> stray_;
};

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

int cmd_serve_client(const std::vector<std::string>& args) {
  const std::string socket_path = flag_value(args, "--socket");
  const std::uint64_t seed = flag_uint(args, "--seed");
  const std::vector<Phase> phases =
      parse_phases(flag_value(args, "--phases"));
  const std::string samples_out = flag_value(args, "--samples-out");
  constexpr int kConnections = 4;
  // Fuzz answers per call re-run in-process and compared byte for byte.
  constexpr std::uint64_t kVerifyFuzz = 8;
  // A request unanswered this long after the schedule ends is a failure.
  constexpr std::uint64_t kDrainNs = 30'000'000'000ull;
  if (socket_path.empty() || phases.empty()) {
    std::fprintf(stderr, "serve-client: need --socket and --phases R:N,...\n");
    return 2;
  }

  // The generator and the readers only sleep, stamp and copy bytes. At
  // real-time priority they run the moment they wake, so lateness and
  // latency measure the server rather than this client's own scheduling.
  // Threads created below inherit the policy. Without the privilege the
  // client runs at normal priority and its lateness shows it.
  sched_param rt{};
  rt.sched_priority = 1;
  const bool realtime =
      pthread_setschedparam(pthread_self(), SCHED_FIFO, &rt) == 0;

  Collector collector;
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Connection>());
    if (!conns.back()->open(socket_path)) {
      std::fprintf(stderr, "serve-client: connect %s: %s\n",
                   socket_path.c_str(), std::strerror(errno));
      return 1;
    }
    conns.back()->start_reader([&collector](std::string line, std::uint64_t t) {
      collector.on_line(std::move(line), t);
    });
  }

  std::vector<std::string> errors;
  auto fail = [&errors](std::string e) {
    if (!e.empty()) errors.push_back(std::move(e));
  };

  // Warm-up (part of set-up): each repeated shape once, so the timed phases
  // see them as cache hits. Their answers are the byte references.
  const std::vector<std::string> warm = warm_lines();
  std::vector<Sample> warm_samples(warm.size());
  const std::uint64_t warm_start = now_ns();
  for (std::size_t i = 0; i < warm.size(); ++i) {
    collector.expect("warm-" + std::to_string(i), &warm_samples[i]);
    if (!conns[0]->send_line(warm[i])) fail("warm-up send failed");
  }
  if (!collector.drain(now_ns() + kDrainNs)) fail("warm-up unanswered");
  const std::uint64_t warm_ns = now_ns() - warm_start;
  std::vector<serve::ServeResponse> references(warm.size());
  for (std::size_t i = 0; i < warm.size() && errors.empty(); ++i) {
    auto parsed = serve::parse_response(warm_samples[i].line);
    if (!parsed.is_ok()) {
      fail("warm-" + std::to_string(i) + ": " + parsed.status().to_string());
      continue;
    }
    references[i] = parsed.value();
    fail(check_report("warm-" + std::to_string(i), references[i]));
  }

  std::vector<std::vector<MixRequest>> mixes;
  std::vector<std::vector<Sample>> samples;
  if (!flag_present(args, "--warm-only") && errors.empty()) {
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const std::size_t count = static_cast<std::size_t>(phases[p].requests);
      mixes.push_back(make_mix(seed * 1000003 + p, count,
                               "p" + std::to_string(p) + "-"));
      samples.emplace_back(count);
      std::vector<Sample>& s = samples.back();
      const std::vector<MixRequest>& mix = mixes.back();
      for (std::size_t i = 0; i < count; ++i) collector.expect(mix[i].id, &s[i]);
      const double interval_ns = 1e9 / static_cast<double>(phases[p].rate);
      const std::uint64_t t0 = now_ns() + 1'000'000;
      for (std::size_t i = 0; i < count; ++i) {
        s[i].due = t0 + static_cast<std::uint64_t>(
                            static_cast<double>(i) * interval_ns);
        sleep_until_ns(s[i].due);
        s[i].sent = now_ns();
        if (!conns[i % kConnections]->send_line(mix[i].line)) {
          fail(mix[i].id + ": send failed");
          break;
        }
      }
      if (!collector.drain(now_ns() + kDrainNs)) fail("requests unanswered");
      if (!errors.empty()) break;
    }
  }
  conns.clear();  // joins the readers

  // Correctness, after the timed phases so it never delays them.
  std::uint64_t attempted = 0;
  std::vector<std::vector<bool>> ok(samples.size());
  std::vector<std::pair<std::size_t, std::size_t>> fuzz_requests;
  auto fail_request = [&](std::size_t p, std::size_t i, std::string e) {
    ok[p][i] = false;
    if (errors.size() < 8) errors.push_back(std::move(e));
  };
  for (std::size_t p = 0; p < samples.size(); ++p) {
    ok[p].assign(samples[p].size(), true);
    for (std::size_t i = 0; i < samples[p].size(); ++i) {
      const MixRequest& req = mixes[p][i];
      ++attempted;
      auto parsed = serve::parse_response(samples[p][i].line);
      std::string e =
          !parsed.is_ok()
              ? req.id + ": unanswered or unparsable"
              : check_response(req, parsed.value(),
                               references[static_cast<std::size_t>(req.shape)]);
      if (!e.empty()) fail_request(p, i, std::move(e));
      if (req.kind != MixKind::kHit) fuzz_requests.emplace_back(p, i);
    }
  }
  // A seeded sample of fuzz answers must equal the in-process result bytes.
  SeededRng pick(seed ^ 0x5eed5eedull);
  std::uint64_t fuzz_verified = 0;
  for (std::uint64_t k = 0; k < kVerifyFuzz && !fuzz_requests.empty(); ++k) {
    const auto [p, i] = fuzz_requests[pick.next() % fuzz_requests.size()];
    const MixRequest& req = mixes[p][i];
    const std::string want =
        fresh_report_line(req.id, run_fuzz_request(req));
    const std::string& got = samples[p][i].line;
    ++fuzz_verified;
    if (got != want) {
      std::size_t at = 0;
      while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
      fail_request(p, i,
                   req.id + ": bytes differ from in-process run_fuzz_task at " +
                       std::to_string(at) + ": got '" + got.substr(at, 80) +
                       "' want '" + want.substr(at, 80) + "'");
    }
  }
  std::uint64_t failed = 0;
  for (const std::vector<bool>& phase : ok) {
    failed += static_cast<std::uint64_t>(
        std::count(phase.begin(), phase.end(), false));
  }
  for (const std::string& line : collector.stray()) {
    errors.push_back("unexpected response line: " + line.substr(0, 200));
  }

  if (!samples_out.empty()) {
    // One row per request: kind, due, sent, received (ns, relative to the
    // phase's first due time; received 0 = unanswered), answer correct.
    std::string out = "{\"phases\":[";
    for (std::size_t p = 0; p < samples.size(); ++p) {
      if (p > 0) out += ",";
      out += "{\"rate\":" + std::to_string(phases[p].rate) +
             ",\"rows\":[";
      const std::uint64_t base = samples[p].empty() ? 0 : samples[p][0].due;
      for (std::size_t i = 0; i < samples[p].size(); ++i) {
        const Sample& s = samples[p][i];
        if (i > 0) out += ",";
        out += "[" + std::to_string(static_cast<int>(mixes[p][i].kind)) + "," +
               std::to_string(s.due - base) + "," +
               std::to_string(s.sent - base) + "," +
               std::to_string(s.received > 0 ? s.received - base : 0) + "," +
               (ok[p][i] ? "1" : "0") + "]";
      }
      out += "]}";
    }
    out += "]}";
    if (const lbsa::Status s = lbsa::obs::write_text_file(samples_out, out);
        !s.is_ok()) {
      errors.push_back(s.to_string());
    }
  }

  lbsa::obs::JsonWriter w;
  w.begin_object();
  w.key("warm_ns");
  w.value_uint(warm_ns);
  w.key("attempted");
  w.value_uint(attempted);
  w.key("failed");
  w.value_uint(failed);
  w.key("fuzz_verified");
  w.value_uint(fuzz_verified);
  w.key("realtime");
  w.value_bool(realtime);
  w.key("errors");
  w.begin_array();
  for (const std::string& e : errors) w.value_string(e);
  w.end_array();
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace lbsa_bench
