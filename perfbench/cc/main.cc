// lbsa_bench — the benchmark's in-process program, linked against the
// repository's libraries. perfbench/run.py starts it; it is not a user tool.
//
//   lbsa_bench check --seconds S [--setup-only]
//   lbsa_bench layers --workload W --seed N --hierarchy HIERARCHY.json
//                     [--trace-out PATH]
//   lbsa_bench serve-client --socket PATH --seed N --phases R:N[,R:N...]
//                           [--samples-out PATH] [--warm-only]
//   lbsa_bench spawn -- PROGRAM [ARGS...]
//
// Each subcommand prints one JSON object line of raw measurements
// (nanoseconds, counts) on stdout and exits 0 iff every output it checked
// was correct.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"

namespace lbsa_bench {

std::string flag_value(const std::vector<std::string>& args,
                       std::string_view flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return "";
}

std::uint64_t flag_uint(const std::vector<std::string>& args,
                        std::string_view flag) {
  const std::string v = flag_value(args, flag);
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') {
    std::fprintf(stderr, "lbsa_bench: %.*s needs a whole number, got '%s'\n",
                 static_cast<int>(flag.size()), flag.data(), v.c_str());
    std::exit(2);
  }
  return parsed;
}

bool flag_present(const std::vector<std::string>& args,
                  std::string_view flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

std::uint64_t proc_status_bytes(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::strtoull(line.c_str() + field.size() + 1, nullptr, 10) * 1024;
    }
  }
  return 0;
}

// Runs PROGRAM to completion and prints its wall time and exit status.
int cmd_spawn(const std::vector<std::string>& args) {
  std::size_t first = 0;
  while (first < args.size() && args[first] != "--") ++first;
  if (first + 1 >= args.size()) {
    std::fprintf(stderr, "usage: lbsa_bench spawn -- PROGRAM [ARGS...]\n");
    return 2;
  }
  std::vector<char*> argv;
  for (std::size_t i = first + 1; i < args.size(); ++i) {
    argv.push_back(const_cast<char*>(args[i].c_str()));
  }
  argv.push_back(nullptr);
  const std::uint64_t t0 = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      std::perror("waitpid");
      return 1;
    }
  }
  const std::uint64_t wall = now_ns() - t0;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf("{\"wall_ns\":%llu,\"exit_code\":%d}\n",
              static_cast<unsigned long long>(wall), code);
  return 0;
}

}  // namespace lbsa_bench

int main(int argc, char** argv) {
  using namespace lbsa_bench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lbsa_bench check|layers|serve-client|spawn [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "check") return cmd_check(args);
  if (cmd == "layers") return cmd_layers(args);
  if (cmd == "serve-client") return cmd_serve_client(args);
  if (cmd == "spawn") return cmd_spawn(args);
  std::fprintf(stderr, "lbsa_bench: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
