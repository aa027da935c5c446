// E3 — the bivalency machinery on both sides of Theorem 4.2.
//
// Series reported:
//   * Bivalency_StrawFallback:  explore + valence-analyze the straw-man
//                               (n+1)-DAC that fails agreement;
//   * Bivalency_StrawAnnounce:  same for the candidate that fails
//                               termination;
//   * Bivalency_AlgorithmTwo:   same analysis on the correct Algorithm 2;
//   * Bivalency_FlpRace:        the 2-process register race.
// Counters: nodes (reachable configs), multivalent, critical.

#include <benchmark/benchmark.h>

#include <memory>

#include "modelcheck/explorer.h"
#include "modelcheck/valence.h"
#include "protocols/dac_from_pac.h"
#include "protocols/flp_race.h"
#include "protocols/straw_dac.h"

namespace {

void analyze(benchmark::State& state,
             std::shared_ptr<const lbsa::sim::Protocol> protocol) {
  std::uint64_t nodes = 0, multivalent = 0, critical = 0;
  for (auto _ : state) {
    lbsa::modelcheck::Explorer explorer(protocol);
    auto graph_or = explorer.explore({.max_nodes = 2'000'000});
    if (!graph_or.is_ok()) {
      state.SkipWithError("exploration failed");
      return;
    }
    lbsa::modelcheck::ValenceAnalyzer analyzer(graph_or.value());
    nodes = graph_or.value().node_count();
    multivalent = analyzer.multivalent_nodes().size();
    critical = analyzer.critical_nodes().size();
    benchmark::DoNotOptimize(critical);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["multivalent"] = static_cast<double>(multivalent);
  state.counters["critical"] = static_cast<double>(critical);
}

void Bivalency_StrawFallback(benchmark::State& state) {
  analyze(state, std::make_shared<lbsa::protocols::StrawDacFallbackProtocol>(
                     std::vector<lbsa::Value>{0, 1, 2}));
}
BENCHMARK(Bivalency_StrawFallback)->Unit(benchmark::kMillisecond);

void Bivalency_StrawAnnounce(benchmark::State& state) {
  analyze(state, std::make_shared<lbsa::protocols::StrawDacAnnounceProtocol>(
                     std::vector<lbsa::Value>{0, 1, 2}));
}
BENCHMARK(Bivalency_StrawAnnounce)->Unit(benchmark::kMillisecond);

void Bivalency_AlgorithmTwo(benchmark::State& state) {
  analyze(state, std::make_shared<lbsa::protocols::DacFromPacProtocol>(
                     std::vector<lbsa::Value>{0, 1, 2}));
}
BENCHMARK(Bivalency_AlgorithmTwo)->Unit(benchmark::kMillisecond);

void Bivalency_FlpRace(benchmark::State& state) {
  analyze(state, std::make_shared<lbsa::protocols::FlpRaceProtocol>(5, 3));
}
BENCHMARK(Bivalency_FlpRace)->Unit(benchmark::kMillisecond);

}  // namespace
