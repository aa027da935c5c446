// The dac6 facts both the check-dac6 leg and the layer probes verify, and
// the helpers that build its two explorations.
#ifndef LBSA_PERFBENCH_CHECK_DAC6_H_
#define LBSA_PERFBENCH_CHECK_DAC6_H_

#include <cstdint>
#include <string>

#include "modelcheck/explorer.h"
#include "modelcheck/run_task.h"

namespace lbsa_bench {

// The flagged dac6 configuration graph (check_dac_task's exploration).
inline constexpr std::uint64_t kDac6Nodes = 250'665;
inline constexpr std::uint64_t kDac6Transitions = 1'179'441;
inline constexpr std::uint32_t kDac6Depth = 18;
// Workers of the timed check; the host the benchmark targets has 4 cores.
inline constexpr int kCheckWorkers = 4;

lbsa::modelcheck::Explorer::FlagFn dac_flag_fn(int distinguished_pid);
// "" iff the graph is complete and matches the dac6 facts above.
std::string verify_dac6_graph(const lbsa::modelcheck::ConfigGraph& graph);
// "" iff the check verdict is ok over exactly the dac6 graph.
std::string verify_dac6_check(const lbsa::modelcheck::TaskRunResult& result);
// run_check_task at kCheckWorkers, default engine, no reduction.
lbsa::modelcheck::CheckTaskSpec dac6_check_spec();
// The serial reference engine at 1 worker.
lbsa::modelcheck::ExploreOptions dac6_serial_options();

}  // namespace lbsa_bench

#endif  // LBSA_PERFBENCH_CHECK_DAC6_H_
