// Byte-mutation harness for every JSON validator: run reports, the bench
// and hierarchy artifacts, heartbeat streams and digests, trace files, and
// the lbsa_serverd request/response lines. Each seed first validates OK;
// its mutants (bit flips, byte deletions, span duplications and cross-seed
// splices from a fixed-seed Xoshiro256) must then come back OK or
// INVALID_ARGUMENT — never a crash, a hang or a sanitizer report. The
// budget is fixed so the suite stays within a few seconds under ASan.
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "gtest/gtest.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/schema.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace lbsa::obs {
namespace {

struct Seed {
  std::string name;
  std::string text;
  std::function<Status(std::string_view)> validate;
};

std::string read_source_file(const std::string& relative) {
  std::ifstream in(std::string(LBSA_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string sample_run_report() {
  RunReport report;
  report.tool = "validator_mutation_test";
  report.task = "dac3";
  report.params = {{"threads", "2"}, {"engine", "\"workstealing\""}};
  report.wall_seconds = 0.25;
  set_metrics_enabled(true);
  Registry registry;
  registry.counter("t.nodes")->add(441);
  registry.gauge("t.depth")->set(-3);
  registry.counter("t.steals", Stability::kVolatile)->add(9);
  registry.histogram("t.sizes")->observe(5);
  registry.histogram("t.sizes")->observe(~std::uint64_t{0});
  report.metrics = registry.snapshot();
  set_metrics_enabled(false);
  report.sections = {
      {"explorer", R"({"nodes":441,"truncated":false,"reduction_ratio":1.5})"},
      {"timeseries",
       R"({"run_id":"0123456789abcdef","interval_ms":1000,"ticks":2,)"
       R"("uptime_ms":[1000,2000],"nodes_total":[10,20],)"
       R"("frontier_size":[4,0],"nodes_per_sec":[10.0,10.0]})"},
  };
  return report.to_json();
}

// A three-line heartbeat stream (two ticks and the final line) from a sink-
// mode sampler under a fake clock.
std::string sample_heartbeat_stream() {
  std::uint64_t now_ms = 0;
  std::string stream;
  Progress progress;
  progress.configure_workers(2);
  HeartbeatOptions options;
  options.progress = &progress;
  options.tool = "validator_mutation_test";
  options.task = "dac3";
  options.run_id = "deadbeef00000000";
  options.clock_ms = [&now_ms] { return now_ms; };
  options.sink = [&stream](std::string_view line) {
    stream.append(line);
    stream += '\n';
  };
  {
    HeartbeatSampler sampler(std::move(options));
    EXPECT_TRUE(sampler.open().is_ok());
    progress.nodes_total.store(10);
    now_ms = 1000;
    sampler.tick();
    progress.nodes_total.store(20);
    progress.frontier_size.store(3);
    now_ms = 2000;
    sampler.tick();
    EXPECT_TRUE(sampler.stop().is_ok());
  }
  return stream;
}

std::string sample_trace() {
  Tracer tracer;
  tracer.set_lane_name(0, "coordinator");
  tracer.record(TraceEvent{"level", kCatPhase, 0, 10, 5, {{"depth", 3}}});
  tracer.record(TraceEvent{"chunk", kCatWorker, 1, 12, 2, {}});
  return tracer.to_chrome_json();
}

Status check_request(std::string_view line) {
  return serve::parse_request(line).status();
}

Status check_response(std::string_view line) {
  return serve::parse_response(line).status();
}

std::vector<Seed> seeds() {
  const std::string report = sample_run_report();
  std::vector<Seed> out = {
      {"HIERARCHY.json", read_source_file("HIERARCHY.json"),
       validate_hierarchy_artifact_json},
      {"BENCH_modelcheck.json", read_source_file("BENCH_modelcheck.json"),
       validate_bench_artifact_json},
      {"run report", report, validate_run_report_json},
      {"heartbeat stream", sample_heartbeat_stream(), validate_heartbeat_file},
      {"heartbeat summary",
       R"({"heartbeat_summary_version":1,"run_id":"deadbeef00000000",)"
       R"("tool":"explorer_cli","task":"dac3","ticks":3,"first_seq":0,)"
       R"("last_seq":2,"nodes_total":441,"transitions_total":1004,)"
       R"("levels_completed":10,"max_nodes_per_sec":120.5,)"
       R"("final_seen":true})",
       validate_heartbeat_file},
      {"trace", sample_trace(), validate_trace_json},
  };
  for (const char* line : {
           R"({"serve_version":1,"op":"explore","id":"r1","task":"dac4-sym",)"
           R"("deadline_ms":5000,"heartbeat_ms":100,"threads":4,)"
           R"("engine":"workstealing","reduction":"symmetry",)"
           R"("max_nodes":100000,"max_levels":3,"allow_truncation":true})",
           R"({"serve_version":1,"op":"check","id":"r2","task":"dac3",)"
           R"("solo_node_bound":1000,"max_violations":1})",
           R"({"serve_version":1,"op":"fuzz","id":"r3","task":"strawdac3",)"
           R"("runs":50,"seed":7,"coverage":true,"stop_after_runs":10})",
           R"({"serve_version":1,"op":"cancel","id":"r4","target":"r1"})",
           R"({"serve_version":1,"op":"status","id":"r5"})",
       }) {
    out.push_back({"request", line, check_request});
  }
  for (const std::string& line : {
           serve::heartbeat_response("r1", R"({"seq":0,"run_id":"abc"})"),
           serve::report_response("r2", 4, true, "human \"text\"", report),
           serve::error_response("r3", invalid_argument("bad knob")),
           serve::cancel_ack_response("r4", "r1", true),
           serve::status_response("r5", R"({"requests_total":3})"),
       }) {
    out.push_back({"response", line, check_response});
  }
  return out;
}

// One random edit of `text`; `other` feeds the cross-seed splice.
void mutate(std::string* text, const std::string& other, Xoshiro256* rng) {
  const std::size_t size = text->size();
  switch (rng->next_below(4)) {
    case 0:  // bit flip
      if (size > 0) {
        (*text)[rng->next_below(size)] ^=
            static_cast<char>(1u << rng->next_below(8));
      }
      break;
    case 1:  // byte delete
      if (size > 0) text->erase(rng->next_below(size), 1);
      break;
    case 2: {  // span duplicate: copy up to 32 bytes to a random offset
      if (size == 0) break;
      const std::size_t from = rng->next_below(size);
      const std::size_t len = 1 + rng->next_below(std::min<std::size_t>(
                                      32, size - from));
      const std::string span = text->substr(from, len);
      text->insert(rng->next_below(size + 1), span);
      break;
    }
    default: {  // cross-seed splice: a prefix of this, a suffix of other
      const std::size_t cut = rng->next_below(size + 1);
      const std::size_t other_cut = rng->next_below(other.size() + 1);
      *text = text->substr(0, cut) + other.substr(other_cut);
      break;
    }
  }
}

TEST(ValidatorMutation, SeedsValidate) {
  for (const Seed& seed : seeds()) {
    const Status s = seed.validate(seed.text);
    EXPECT_TRUE(s.is_ok()) << seed.name << ": " << s.to_string();
  }
}

TEST(ValidatorMutation, MutantsAreAcceptedOrRejectedCleanly) {
  constexpr int kMutantsPerSeed = 300;
  const std::vector<Seed> all = seeds();
  Xoshiro256 rng(0x5eed'0b5e'c0de'f00dULL);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Seed& seed = all[i];
    int schema_rejects = 0;  // rejected past the JSON parser
    for (int n = 0; n < kMutantsPerSeed; ++n) {
      std::string mutant = seed.text;
      const int edits = 1 + static_cast<int>(rng.next_below(3));
      for (int e = 0; e < edits; ++e) {
        mutate(&mutant, all[rng.next_below(all.size())].text, &rng);
      }
      const Status s = seed.validate(mutant);
      ASSERT_TRUE(s.is_ok() || s.code() == StatusCode::kInvalidArgument)
          << seed.name << " mutant " << n << ": " << s.to_string() << "\n"
          << mutant;
      if (!s.is_ok() && s.message().find("json: ") == std::string::npos) {
        ++schema_rejects;
      }
    }
    // The budget must reach the schema tables, not stop at the parser.
    EXPECT_GT(schema_rejects, 0) << seed.name;
  }
}

}  // namespace
}  // namespace lbsa::obs
