// check-dac6 leg: one exhaustive run_check_task of corpus task dac6 at 4
// workers (default engine, no reduction), repeated until --seconds have
// passed and at least kMinReps times, so the median is over several
// samples. Every check must report the known graph exactly. (The serial
// exploration of the same graph is timed and verified in the traced run.)
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench.h"
#include "check_dac6.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/run_task.h"
#include "obs/json.h"

namespace lbsa_bench {

namespace mc = lbsa::modelcheck;

namespace {
constexpr std::size_t kMinReps = 3;
}  // namespace

mc::Explorer::FlagFn dac_flag_fn(int distinguished_pid) {
  // check_dac_task's Nontriviality flag: has a process other than p stepped?
  return [distinguished_pid](std::int64_t flag,
                             const lbsa::sim::Step& step) -> std::int64_t {
    return step.pid != distinguished_pid ? 1 : flag;
  };
}

std::string verify_dac6_graph(const mc::ConfigGraph& graph) {
  std::uint32_t depth = 0;
  for (const mc::Node& node : graph.nodes()) depth = std::max(depth, node.depth);
  if (graph.truncated() || graph.interrupted()) return "dac6 graph incomplete";
  if (graph.nodes().size() != kDac6Nodes ||
      graph.transition_count() != kDac6Transitions || depth != kDac6Depth) {
    return "dac6 graph has " + std::to_string(graph.nodes().size()) +
           " nodes, " + std::to_string(graph.transition_count()) +
           " transitions, depth " + std::to_string(depth);
  }
  return "";
}

std::string verify_dac6_check(const mc::TaskRunResult& result) {
  const std::string want = "dac6: checked " + std::to_string(kDac6Nodes) +
                           " nodes, " + std::to_string(kDac6Transitions) +
                           " transitions, 0 violations\n";
  if (result.exit_code != 0 || !result.report_valid || result.human != want) {
    return "dac6 check: exit " + std::to_string(result.exit_code) + ", " +
           result.human + result.error;
  }
  return "";
}

mc::CheckTaskSpec dac6_check_spec() {
  mc::CheckTaskSpec spec;
  spec.options.explore.threads = kCheckWorkers;
  return spec;
}

mc::ExploreOptions dac6_serial_options() {
  mc::ExploreOptions options;
  options.threads = 1;
  options.engine = mc::ExploreEngine::kSerial;
  return options;
}

int cmd_check(const std::vector<std::string>& args) {
  auto task_or = mc::make_named_task("dac6");
  if (!task_or.is_ok()) {
    std::fprintf(stderr, "%s\n", task_or.status().to_string().c_str());
    return 1;
  }
  const mc::NamedTask& task = task_or.value();
  const mc::CheckTaskSpec check_spec = dac6_check_spec();
  // run.py times process start to this line: the leg's set-up.
  std::printf("ready\n");
  std::fflush(stdout);
  if (flag_present(args, "--setup-only")) return 0;
  const double seconds = static_cast<double>(flag_uint(args, "--seconds"));

  std::vector<std::uint64_t> check_ns;
  std::string error;
  const std::uint64_t start = now_ns();
  // Starts another repetition while one as long as the last would end
  // less than half a repetition past --seconds, so a run ends as close to
  // --seconds as whole repetitions allow.
  while (error.empty() &&
         (check_ns.size() < kMinReps ||
          static_cast<double>(now_ns() - start + check_ns.back() / 2) <=
              seconds * 1e9)) {
    const std::uint64_t t0 = now_ns();
    const mc::TaskRunResult result = mc::run_check_task(task, check_spec);
    check_ns.push_back(now_ns() - t0);
    error = verify_dac6_check(result);
  }

  lbsa::obs::JsonWriter w;
  w.begin_object();
  w.key("check_ns");
  w.begin_array();
  for (std::uint64_t v : check_ns) w.value_uint(v);
  w.end_array();
  w.key("peak_rss_bytes");
  w.value_uint(proc_status_bytes("VmHWM"));
  w.key("error");
  w.value_string(error);
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace lbsa_bench
