// report_check — schema validator for the observability artifacts this
// repository's tools emit (docs/observability.md):
//
//   ./report_check run-report FILE...   # --metrics-json RunReport JSON
//   ./report_check bench FILE...        # tools/run_report.sh BENCH artifact
//   ./report_check hierarchy FILE...    # tools/hierarchy_report.sh HIERARCHY
//   ./report_check trace FILE...        # --trace-out chrome://tracing JSON
//   ./report_check heartbeat FILE...    # --heartbeat-out JSONL stream, or
//                                       # an lbsa_watch --summary-json digest
//
// Exits 0 iff every file validates; prints one line per file. Used by
// tools/run_report.sh to gate its merged artifact and handy for checking
// artifacts by hand.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/heartbeat.h"
#include "obs/report.h"
#include "obs/schema.h"

namespace {

using Validator = lbsa::Status (*)(std::string_view);

constexpr struct {
  const char* mode;
  Validator validate;
} kModes[] = {
    {"run-report", lbsa::obs::validate_run_report_json},
    {"bench", lbsa::obs::validate_bench_artifact_json},
    {"hierarchy", lbsa::obs::validate_hierarchy_artifact_json},
    {"trace", lbsa::obs::validate_trace_json},
    {"heartbeat", lbsa::obs::validate_heartbeat_file},
};

int usage() {
  for (const auto& m : kModes) {
    std::fprintf(stderr, "%s report_check %s FILE...\n",
                 m.mode == kModes[0].mode ? "usage:" : "      ", m.mode);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lbsa;
  if (argc < 3) return usage();
  Validator validate = nullptr;
  for (const auto& m : kModes) {
    if (!std::strcmp(argv[1], m.mode)) validate = m.validate;
  }
  if (validate == nullptr) return usage();

  bool all_ok = true;
  for (int i = 2; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      all_ok = false;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (const Status s = validate(buffer.str()); !s.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i], s.to_string().c_str());
      all_ok = false;
    } else {
      std::printf("%s: OK\n", argv[i]);
    }
  }
  return all_ok ? 0 : 1;
}
