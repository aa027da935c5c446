// Valence analysis tests: the mechanized form of the bivalency vocabulary
// used by Theorems 4.2 and 5.2 (initial bivalence, univalent successors,
// critical configurations).
#include "modelcheck/valence.h"

#include <gtest/gtest.h>

#include "protocols/flp_race.h"
#include "protocols/one_shot.h"

namespace lbsa::modelcheck {
namespace {

using protocols::FlpRaceProtocol;
using protocols::make_consensus_via_n_consensus;
using protocols::make_ksa_via_two_sa;

ConfigGraph explore(std::shared_ptr<const sim::Protocol> protocol) {
  Explorer explorer(std::move(protocol));
  auto graph_or = explorer.explore();
  EXPECT_TRUE(graph_or.is_ok());
  return std::move(graph_or).value();
}

TEST(ValenceAnalyzer, ConsensusViaObjectInitialConfigIsBivalent) {
  // With a real consensus object, the *initial* configuration is bivalent
  // (either process can win) and every configuration after the first
  // propose is univalent.
  const ConfigGraph graph = explore(make_consensus_via_n_consensus({0, 1}));
  ValenceAnalyzer analyzer(graph);
  EXPECT_TRUE(analyzer.is_multivalent(graph.root()));
  // Both decision values are observed.
  ASSERT_EQ(analyzer.universe().size(), 2u);
  // Every successor of the root is univalent: the first propose decides.
  for (const Edge& e : graph.edges(graph.root())) {
    EXPECT_TRUE(analyzer.is_univalent(e.to));
  }
  // So the root is a critical configuration.
  const auto critical = analyzer.critical_nodes();
  ASSERT_EQ(critical.size(), 1u);
  EXPECT_EQ(critical[0], graph.root());
}

TEST(ValenceAnalyzer, UnivalentValueMatchesWinner) {
  const ConfigGraph graph = explore(make_consensus_via_n_consensus({0, 1}));
  ValenceAnalyzer analyzer(graph);
  for (const Edge& e : graph.edges(graph.root())) {
    const std::uint32_t succ = e.to;
    ASSERT_TRUE(analyzer.is_univalent(succ));
    // The winner is the pid that proposed first (pid == its input here).
    EXPECT_EQ(analyzer.univalent_value(succ), static_cast<Value>(e.pid));
  }
}

TEST(ValenceAnalyzer, FlpRaceHasBivalentInitialConfig) {
  // Claim 5.2.1's shape on a register-only candidate: the initial
  // configuration is bivalent.
  const ConfigGraph graph =
      explore(std::make_shared<FlpRaceProtocol>(5, 3));
  ValenceAnalyzer analyzer(graph);
  EXPECT_TRUE(analyzer.is_multivalent(graph.root()));
}

TEST(ValenceAnalyzer, FlpRaceLivelockCycleIsUnivalent) {
  // The FLP race fails termination through a livelock in which the loser
  // spins against an already-decided peer. The spinning region is
  // *univalent* (the peer's decision is fixed); mechanically: the
  // configuration graph contains a cycle, and every node on some cycle is
  // univalent with a non-halted process.
  const ConfigGraph graph = explore(std::make_shared<FlpRaceProtocol>(5, 3));
  ValenceAnalyzer analyzer(graph);

  // Iterative DFS cycle detection (colors: 0 = white, 1 = on stack,
  // 2 = done).
  const size_t n = graph.nodes().size();
  std::vector<char> color(n, 0);
  std::uint32_t cycle_node = static_cast<std::uint32_t>(n);
  std::vector<std::pair<std::uint32_t, size_t>> stack{{graph.root(), 0}};
  color[graph.root()] = 1;
  while (!stack.empty() && cycle_node == n) {
    auto& [v, pos] = stack.back();
    if (pos < graph.edges(v).size()) {
      const std::uint32_t to = graph.edges(v)[pos++].to;
      if (color[to] == 0) {
        color[to] = 1;
        stack.push_back({to, 0});
      } else if (color[to] == 1) {
        cycle_node = to;
      }
    } else {
      color[v] = 2;
      stack.pop_back();
    }
  }
  ASSERT_LT(cycle_node, n) << "expected a livelock cycle";
  EXPECT_TRUE(analyzer.is_univalent(cycle_node));
  EXPECT_FALSE(graph.nodes()[cycle_node].config.halted());
}

TEST(ValenceAnalyzer, KsaGraphObservesBothValues) {
  const ConfigGraph graph = explore(make_ksa_via_two_sa({7, 9}));
  ValenceAnalyzer analyzer(graph);
  EXPECT_EQ(analyzer.universe().size(), 2u);
  // 2 processes / 2-SA: both may decide their own values; the root can reach
  // both decisions.
  EXPECT_TRUE(analyzer.is_multivalent(graph.root()));
}

TEST(ValenceAnalyzer, TerminalNodesAreUnivalentOrDecisionFree) {
  const ConfigGraph graph = explore(make_consensus_via_n_consensus({0, 1}));
  ValenceAnalyzer analyzer(graph);
  for (std::uint32_t id = 0; id < graph.nodes().size(); ++id) {
    if (graph.nodes()[id].config.halted()) {
      EXPECT_LE(analyzer.reachable_count(id), 1);
    }
  }
}

TEST(ValenceAnalyzer, MultivalentNodesListMatchesPredicate) {
  const ConfigGraph graph = explore(make_consensus_via_n_consensus({0, 1}));
  ValenceAnalyzer analyzer(graph);
  const auto nodes = analyzer.multivalent_nodes();
  for (std::uint32_t id : nodes) EXPECT_TRUE(analyzer.is_multivalent(id));
  size_t count = 0;
  for (std::uint32_t id = 0; id < graph.nodes().size(); ++id) {
    if (analyzer.is_multivalent(id)) ++count;
  }
  EXPECT_EQ(nodes.size(), count);
}

}  // namespace
}  // namespace lbsa::modelcheck
