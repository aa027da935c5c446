// Shared pieces of the benchmark program lbsa_bench: the clock, the seeded
// generator, the in-memory span log, and the subcommand entry points.
//
// lbsa_bench only times calls into the repository's public interfaces from
// outside; statistics over the raw nanosecond samples it prints live in
// perfbench/stats.py.
#ifndef LBSA_PERFBENCH_BENCH_H_
#define LBSA_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lbsa_bench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64: the same seed gives the same stream on every platform.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Spans recorded around calls into one layer: name, layer, interval, the
// span that caused it (0 = root) and the request they serve. Kept in memory
// and written once, at the end, as a Chrome trace.
struct SpanRecord {
  std::string name;
  std::string layer;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  int lane = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_ns_(now_ns()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::uint64_t new_id();
  void add(SpanRecord span);
  std::vector<SpanRecord> spans() const;
  // Chrome trace-event JSON via obs::Tracer (the format explorer_cli
  // --trace-out writes). Each event's args carry span_id, parent_id,
  // request_id and the exact start_ns/dur_ns, which the integer-microsecond
  // ts/dur fields round.
  std::string to_chrome_json() const;

 private:
  const std::uint64_t epoch_ns_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

// Records one span covering its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer,
             std::uint64_t parent = 0, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return record_.id; }
  // Nanoseconds since construction.
  std::uint64_t elapsed_ns() const { return now_ns() - record_.start_ns; }

 private:
  SpanLog* log_;
  SpanRecord record_;
};

// A size field of /proc/self/status ("VmRSS", "VmHWM"), in bytes.
std::uint64_t proc_status_bytes(std::string_view field);

// Subcommands; each returns the process exit code.
int cmd_check(const std::vector<std::string>& args);
int cmd_layers(const std::vector<std::string>& args);
int cmd_serve_client(const std::vector<std::string>& args);
int cmd_spawn(const std::vector<std::string>& args);

// Flag lookup for the subcommands: the value after `flag`, or "" when it
// is absent. flag_uint exits with code 2 unless that value is a whole number.
std::string flag_value(const std::vector<std::string>& args,
                       std::string_view flag);
std::uint64_t flag_uint(const std::vector<std::string>& args,
                        std::string_view flag);
bool flag_present(const std::vector<std::string>& args,
                  std::string_view flag);

}  // namespace lbsa_bench

#endif  // LBSA_PERFBENCH_BENCH_H_
