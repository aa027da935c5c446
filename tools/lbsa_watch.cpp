// lbsa_watch — tail a --heartbeat-out JSONL stream from a concurrently
// running explorer_cli / fuzz_shrink_cli / hierarchy_sweep_cli and render a
// live status line per heartbeat, plus an optional machine-readable digest.
//
//   ./lbsa_watch FILE [--summary-json PATH] [--timeout-s S] [--quiet]
//
// The watcher polls FILE (which may not exist yet — the producer creates
// it), consumes complete lines as they are appended, validates each against
// the heartbeat schema, and prints a refreshing status table:
//
//   seq    uptime      nodes     nodes/s   frontier  lvl   eta  workers
//
// It exits 0 when a line with "final":true arrives (the producer's stop()
// signal), or 1 if --timeout-s elapses first / the stream is invalid.
// --summary-json writes a final digest (validated by
// `report_check heartbeat`, schema in docs/observability.md) summarizing
// the whole observed stream; --quiet suppresses the per-tick lines (CI
// mode: just follow, digest, exit).
//
// Exit codes:
//   0  final heartbeat observed
//   1  timeout, I/O failure, or invalid stream
//   2  usage error
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/report.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lbsa_watch FILE [--summary-json PATH] [--timeout-s S] "
               "[--quiet]\n");
  return 2;
}

std::string format_uptime(std::uint64_t ms) {
  char buf[32];
  const std::uint64_t s = ms / 1000;
  if (s >= 3600) {
    std::snprintf(buf, sizeof buf, "%lluh%02llum",
                  static_cast<unsigned long long>(s / 3600),
                  static_cast<unsigned long long>((s % 3600) / 60));
  } else if (s >= 60) {
    std::snprintf(buf, sizeof buf, "%llum%02llus",
                  static_cast<unsigned long long>(s / 60),
                  static_cast<unsigned long long>(s % 60));
  } else {
    std::snprintf(buf, sizeof buf, "%llu.%llus",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>((ms % 1000) / 100));
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsa;
  if (argc < 2) return usage();
  const char* path = argv[1];
  if (path[0] == '-') return usage();
  std::string summary_path;
  double timeout_s = 0.0;  // 0 = wait forever
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    auto next_arg = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--summary-json")) {
      summary_path = next_arg("--summary-json");
    } else if (!std::strcmp(argv[i], "--timeout-s")) {
      timeout_s = std::strtod(next_arg("--timeout-s"), nullptr);
      if (!(timeout_s > 0.0)) {
        std::fprintf(stderr, "--timeout-s needs a positive number\n");
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--quiet")) {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return usage();
    }
  }

  const auto start = std::chrono::steady_clock::now();
  auto timed_out = [&] {
    if (timeout_s <= 0.0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() > timeout_s;
  };

  obs::HeartbeatStreamChecker checker;
  const obs::HeartbeatStreamChecker::Digest& digest = checker.digest();
  std::string carry;        // incomplete trailing line between reads
  std::size_t offset = 0;   // bytes of FILE consumed so far
  bool header_printed = false;

  while (true) {
    // Tail-follow: re-open and seek past what we've consumed. Reopening per
    // poll (4 Hz) is cheap and handles the producer creating the file late.
    std::ifstream in(path, std::ios::binary);
    if (in) {
      in.seekg(static_cast<std::streamoff>(offset));
      std::string chunk((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      offset += chunk.size();
      carry += chunk;
      std::size_t nl;
      while ((nl = carry.find('\n')) != std::string::npos) {
        const std::string line = carry.substr(0, nl);
        carry.erase(0, nl + 1);
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        auto parsed = obs::parse_json(line);
        if (!parsed.is_ok()) {
          std::fprintf(stderr, "lbsa_watch: %s: bad heartbeat line: %s\n",
                       path, parsed.status().message().c_str());
          return 1;
        }
        const obs::JsonValue& hb = parsed.value();
        if (const Status s = checker.feed(hb); !s.is_ok()) {
          std::fprintf(stderr, "lbsa_watch: %s: %s\n", path,
                       s.to_string().c_str());
          return 1;
        }
        if (!quiet) {
          if (!header_printed) {
            header_printed = true;
            std::printf("watching %s: %s/%s run %s\n", path,
                        digest.tool.c_str(), digest.task.c_str(),
                        digest.run_id.c_str());
            std::printf("%6s %9s %12s %12s %10s %6s %8s %6s\n", "seq",
                        "uptime", "nodes", "nodes/s", "frontier", "levels",
                        "eta", "busy");
          }
          const obs::JsonValue* eta = hb.find("eta_s");
          char eta_buf[32];
          if (eta->is_number()) {
            std::snprintf(eta_buf, sizeof eta_buf, "%.0fs",
                          eta->number_value);
          } else {
            std::snprintf(eta_buf, sizeof eta_buf, "-");
          }
          std::size_t busy = 0;
          const obs::JsonValue* workers = hb.find("workers");
          for (const obs::JsonValue& slot : workers->array) {
            if (slot.find("busy")->uint_value != 0) ++busy;
          }
          std::printf("%6llu %9s %12llu %12.0f %10llu %6llu %8s %3zu/%-2zu%s\n",
                      static_cast<unsigned long long>(digest.last_seq),
                      format_uptime(hb.find("uptime_ms")->uint_value).c_str(),
                      static_cast<unsigned long long>(digest.nodes_total),
                      hb.find("nodes_per_sec")->number_value,
                      static_cast<unsigned long long>(
                          hb.find("frontier_size")->uint_value),
                      static_cast<unsigned long long>(digest.levels_completed),
                      eta_buf, busy, workers->array.size(),
                      hb.find("final")->bool_value ? "  [final]" : "");
          std::fflush(stdout);
        }
      }
    }
    if (digest.final_seen) break;
    if (timed_out()) {
      std::fprintf(stderr,
                   "lbsa_watch: %s: timed out after %.1fs (%llu heartbeats, "
                   "no final line)\n",
                   path, timeout_s,
                   static_cast<unsigned long long>(digest.ticks));
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }

  if (!summary_path.empty()) {
    std::string json = checker.summary_json();
    // Self-check before writing: this binary never leaves a digest behind
    // that `report_check heartbeat` would reject.
    if (const Status s = obs::validate_heartbeat_summary_json(json);
        !s.is_ok()) {
      std::fprintf(stderr, "internal: emitted digest fails schema: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    json += '\n';
    if (const Status s = obs::write_text_file(summary_path, json);
        !s.is_ok()) {
      std::fprintf(stderr, "%s\n", s.to_string().c_str());
      return 1;
    }
  }
  return 0;
}
