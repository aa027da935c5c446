// Model explorer: dump the configuration graph, valence structure, and
// critical configurations of a chosen protocol — the bivalency machinery of
// Theorems 4.2/5.2 made tangible.
//
//   ./model_explorer <protocol> [--dot]
//     consensus   one-shot 2-consensus between 2 processes
//     flp         register-only consensus attempt (FLP race)
//     dac         3-DAC via one 3-PAC (Algorithm 2)
//     straw       straw-man 3-DAC from 2-consensus + 2-SA
//   --dot prints the valence-colored configuration graph as Graphviz DOT
//   (pipe through `dot -Tsvg` to render) instead of the analysis summary.

#include <cstdio>
#include <cstring>
#include <memory>

#include "modelcheck/explorer.h"
#include "modelcheck/export.h"
#include "modelcheck/step_complexity.h"
#include "modelcheck/task_check.h"
#include "modelcheck/valence.h"
#include "protocols/dac_from_pac.h"
#include "protocols/flp_race.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"

namespace {

using lbsa::modelcheck::ConfigGraph;
using lbsa::modelcheck::Explorer;
using lbsa::modelcheck::ValenceAnalyzer;

std::shared_ptr<const lbsa::sim::Protocol> pick(const char* name) {
  if (std::strcmp(name, "consensus") == 0) {
    return lbsa::protocols::make_consensus_via_n_consensus({0, 1});
  }
  if (std::strcmp(name, "flp") == 0) {
    return std::make_shared<lbsa::protocols::FlpRaceProtocol>(5, 3);
  }
  if (std::strcmp(name, "dac") == 0) {
    return std::make_shared<lbsa::protocols::DacFromPacProtocol>(
        std::vector<lbsa::Value>{0, 1, 2});
  }
  if (std::strcmp(name, "straw") == 0) {
    return std::make_shared<lbsa::protocols::StrawDacFallbackProtocol>(
        std::vector<lbsa::Value>{0, 1, 2});
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "consensus";
  auto protocol = pick(name);
  if (!protocol) {
    std::fprintf(stderr,
                 "usage: model_explorer [consensus|flp|dac|straw]\n");
    return 2;
  }

  const bool want_dot =
      argc > 2 && std::strcmp(argv[2], "--dot") == 0;

  if (!want_dot) {
    std::printf("=== exploring %s ===\n", protocol->name().c_str());
  }
  Explorer explorer(protocol);
  auto graph_or = explorer.explore({.max_nodes = 2'000'000});
  if (!graph_or.is_ok()) {
    std::fprintf(stderr, "exploration failed: %s\n",
                 graph_or.status().to_string().c_str());
    return 1;
  }
  const ConfigGraph& graph = graph_or.value();

  if (want_dot) {
    ValenceAnalyzer analyzer(graph);
    std::fputs(to_dot(*protocol, graph, &analyzer).c_str(), stdout);
    return 0;
  }
  std::printf("reachable configurations: %zu\ntransitions:              %llu\n",
              graph.node_count(),
              static_cast<unsigned long long>(graph.transition_count()));

  ValenceAnalyzer analyzer(graph);
  std::printf("decision universe:         {");
  for (size_t i = 0; i < analyzer.universe().size(); ++i) {
    std::printf("%s%lld", i ? ", " : "",
                static_cast<long long>(analyzer.universe()[i]));
  }
  std::printf("}\n");

  const auto multivalent = analyzer.multivalent_nodes();
  std::printf("multivalent configurations: %zu (initial config is %s)\n",
              multivalent.size(),
              analyzer.is_multivalent(graph.root())
                  ? "BIVALENT — Claim 4.2.4 / 5.2.1 shape"
                  : "univalent");

  const auto critical = analyzer.critical_nodes();
  std::printf("critical configurations:    %zu\n", critical.size());
  if (!critical.empty()) {
    const auto id = critical.front();
    std::printf("\nfirst critical configuration (every successor univalent), "
                "reached by:\n");
    for (const auto& step : graph.path_to(id)) {
      std::printf("  %s\n", step.to_string(*protocol).c_str());
    }
    std::printf("successor valences:\n");
    for (const auto& edge : graph.edges(id)) {
      std::printf("  after p%d step -> %lld-valent\n", edge.pid,
                  static_cast<long long>(analyzer.univalent_value(edge.to)));
    }
  }

  std::printf("worst-case own steps:      ");
  for (int pid = 0; pid < protocol->process_count(); ++pid) {
    const auto bound = lbsa::modelcheck::worst_case_own_steps(graph, pid);
    std::printf("%sp%d=%s", pid ? ", " : "", pid,
                bound.has_value() ? std::to_string(*bound).c_str() : "∞");
  }
  std::printf("\n");

  // For decision tasks, also run the property checker and show verdicts.
  std::printf("\ntask checker verdict:\n");
  std::vector<lbsa::Value> inputs;
  for (int pid = 0; pid < protocol->process_count(); ++pid) {
    // The demo protocols embed inputs in locals[0] at pc 0.
    inputs.push_back(protocol->initial_locals(pid)[0]);
  }
  auto report =
      std::strncmp(name, "dac", 3) == 0 || std::strcmp(name, "straw") == 0
          ? lbsa::modelcheck::check_dac_task(protocol, 0, inputs)
          : lbsa::modelcheck::check_consensus_task(protocol, inputs);
  if (report.is_ok()) {
    std::printf("%s\n", report.value().to_string().c_str());
  } else {
    std::printf("checker error: %s\n", report.status().to_string().c_str());
  }
  return 0;
}
