// Cross-validation between the two execution engines: every configuration a
// seeded adversarial Simulation visits must appear in the Explorer's
// exhaustive graph, and replaying any explored path through the Simulation
// reproduces the graph's node. Catching a divergence here would mean the
// two implementations of the step semantics disagree — the strongest
// internal consistency check the library has.
#include <gtest/gtest.h>

#include <set>

#include "modelcheck/explorer.h"
#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"
#include "sim/simulation.h"

namespace lbsa::modelcheck {
namespace {

using protocols::DacFromPacProtocol;
using protocols::make_ksa_via_two_sa;

TEST(CrossValidation, SimulatedRunsStayInsideExploredGraph) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20, 30});
  Explorer explorer(protocol);
  auto graph = std::move(explorer.explore()).value();

  std::set<std::vector<std::int64_t>> known;
  for (const Node& node : graph.nodes()) {
    known.insert(node.config.encode());
  }

  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sim::Simulation simulation(protocol);
    sim::RandomAdversary adversary(seed);
    ASSERT_TRUE(known.contains(simulation.config().encode()));
    for (int step = 0; step < 200 && !simulation.config().halted(); ++step) {
      const int pid =
          adversary.pick_process(simulation.config(), static_cast<std::uint64_t>(step));
      if (pid == sim::Adversary::kStop) break;
      const int outcomes =
          sim::outcome_count(*protocol, simulation.config(), pid);
      simulation.step(pid, adversary.pick_outcome(outcomes, 0));
      ASSERT_TRUE(known.contains(simulation.config().encode()))
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(CrossValidation, NondeterministicObjectRunsStayInsideGraph) {
  auto protocol = make_ksa_via_two_sa({10, 20, 30});
  Explorer explorer(protocol);
  auto graph = std::move(explorer.explore()).value();
  std::set<std::vector<std::int64_t>> known;
  for (const Node& node : graph.nodes()) {
    known.insert(node.config.encode());
  }
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    sim::Simulation simulation(protocol);
    sim::RandomAdversary adversary(seed);
    simulation.run(&adversary, {.max_steps = 100});
    ASSERT_TRUE(known.contains(simulation.config().encode())) << seed;
  }
}

TEST(CrossValidation, EveryGraphPathReplaysInSimulation) {
  auto protocol =
      std::make_shared<DacFromPacProtocol>(std::vector<Value>{10, 20});
  Explorer explorer(protocol);
  auto graph = std::move(explorer.explore()).value();
  for (std::uint32_t id = 0; id < graph.nodes().size(); ++id) {
    sim::Simulation simulation(protocol);
    for (const sim::Step& step : graph.path_to(id)) {
      simulation.step(step.pid, step.outcome_choice);
    }
    ASSERT_EQ(simulation.config(), graph.nodes()[id].config) << "node " << id;
  }
}

TEST(CrossValidation, GraphEdgeCountsMatchOutcomeCounts) {
  auto protocol = make_ksa_via_two_sa({10, 20});
  Explorer explorer(protocol);
  auto graph = std::move(explorer.explore()).value();
  for (std::uint32_t id = 0; id < graph.nodes().size(); ++id) {
    const sim::Config& config = graph.nodes()[id].config;
    std::size_t expected = 0;
    for (int pid = 0; pid < protocol->process_count(); ++pid) {
      if (config.enabled(pid)) {
        expected += static_cast<std::size_t>(
            sim::outcome_count(*protocol, config, pid));
      }
    }
    EXPECT_EQ(graph.edges(id).size(), expected) << "node " << id;
  }
}

}  // namespace
}  // namespace lbsa::modelcheck
