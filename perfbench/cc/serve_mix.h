// The serve-mix request schedule, shared by the socket client and the
// in-process traced run: which request lines go out, in which order, and
// how each answer is checked.
#ifndef LBSA_PERFBENCH_SERVE_MIX_H_
#define LBSA_PERFBENCH_SERVE_MIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "modelcheck/run_task.h"
#include "serve/protocol.h"

namespace lbsa_bench {

enum class MixKind { kHit = 0, kCoverage = 1, kBlind = 2 };

struct MixRequest {
  MixKind kind = MixKind::kHit;
  int shape = 0;     // index into warm_lines() for hits
  std::string id;
  std::string line;  // the request line, no trailing newline
};

// The repeated check shapes (cache hits after warm-up): dac3,
// dac4-sym/symmetry, consensus5, dac5-sym/symmetry.
std::vector<std::string> warm_lines();
inline constexpr int kShapes = 4;

// `count` requests ordered by `seed`: 30% hits on the repeated shapes, 65%
// coverage fuzz dac3 --runs 200 and 5% blind fuzz dac5 --runs 500, each
// fuzz request with a fresh seed. Ids are "<prefix><index>".
std::vector<MixRequest> make_mix(std::uint64_t seed, std::size_t count,
                                 const std::string& id_prefix);

// Runs a fuzz request's campaign in process with the knobs CheckService
// takes from it.
lbsa::modelcheck::FuzzTaskRunResult run_fuzz_request(
    const MixRequest& request);

// The report line CheckService sends for a freshly computed result.
std::string fresh_report_line(const std::string& request_id,
                              lbsa::modelcheck::TaskRunResult result);

// "" iff `response` is a schema-valid report with exit code 0.
std::string check_report(const std::string& request_id,
                         const lbsa::serve::ServeResponse& response);

// check_report, and for hits also: the report and human bytes equal
// `reference` (the shape's warm-up answer) and come from the cache.
std::string check_response(const MixRequest& request,
                           const lbsa::serve::ServeResponse& response,
                           const lbsa::serve::ServeResponse& reference);

}  // namespace lbsa_bench

#endif  // LBSA_PERFBENCH_SERVE_MIX_H_
