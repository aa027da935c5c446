// Task-checker tests, covering both directions:
//   * positive (E2, E4, E5): Algorithm 2 solves n-DAC for all schedules;
//     one-shot consensus via n-consensus / (n,m)-PAC passes all properties;
//   * negative (E3): the straw-man DAC candidates built from n-consensus +
//     registers + 2-SA fail exactly as Theorem 4.2 predicts, and the FLP
//     race fails termination.
#include "modelcheck/task_check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "modelcheck/corpus.h"
#include "protocols/dac_from_pac.h"
#include "protocols/flp_race.h"
#include "protocols/group_ksa.h"
#include "protocols/one_shot.h"
#include "protocols/straw_dac.h"
#include "protocols/straw_dac_oprime.h"
#include "protocols/straw_nm_consensus.h"
#include "spec/coin_type.h"
#include "spec/ksa_type.h"
#include "spec/register_type.h"

namespace lbsa::modelcheck {
namespace {

using protocols::DacFromPacProtocol;
using protocols::FlpRaceProtocol;
using protocols::GroupKsaProtocol;
using protocols::StrawDacAnnounceProtocol;
using protocols::StrawDacFallbackProtocol;
using protocols::make_consensus_via_n_consensus;
using protocols::make_consensus_via_nm_pac;
using protocols::make_ksa_via_oprime;
using protocols::make_ksa_via_two_sa;

std::vector<Value> iota_inputs(int n) {
  std::vector<Value> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(100 + i);
  return inputs;
}

// ----------------------------- positive checks -----------------------------

TEST(TaskCheck, ConsensusViaNConsensusPasses) {
  for (int n = 1; n <= 4; ++n) {
    auto report_or =
        check_consensus_task(make_consensus_via_n_consensus(iota_inputs(n)),
                             iota_inputs(n));
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "n=" << n << "\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, ConsensusViaNmPacPasses) {
  // Observation 5.1(c) / positive half of Theorem 5.3: (n,m)-PAC solves
  // m-consensus.
  for (const auto& [n, m] : {std::pair{3, 2}, std::pair{4, 3},
                             std::pair{2, 2}}) {
    auto report_or = check_consensus_task(
        make_consensus_via_nm_pac(n, m, iota_inputs(m)), iota_inputs(m));
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "(n,m)=(" << n << "," << m << ")\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, KsaViaTwoSaPasses) {
  // 2-SA solves 2-set agreement among any number of processes (here 2..4,
  // exhaustively over all schedules and all nondeterministic responses).
  for (int n = 2; n <= 4; ++n) {
    auto report_or = check_k_agreement_task(
        make_ksa_via_two_sa(iota_inputs(n)), 2, iota_inputs(n));
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "n=" << n << "\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, TwoSaDoesNotSolveConsensusAmongTwo) {
  // The same protocol checked against k=1 fails agreement: the 2-SA object
  // may return different members to the two proposers.
  auto report_or = check_k_agreement_task(make_ksa_via_two_sa(iota_inputs(2)),
                                          1, iota_inputs(2));
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"));
}

TEST(TaskCheck, GroupKsaPasses) {
  // k-set agreement among k*m processes from k m-consensus objects
  // (Chaudhuri-Reiners partition protocol) — the lower-bound construction
  // behind every set-agreement-power entry.
  for (const auto& [k, m] : {std::pair{2, 2}, std::pair{3, 1},
                             std::pair{2, 1}}) {
    const auto inputs = iota_inputs(k * m);
    auto protocol = std::make_shared<GroupKsaProtocol>(k, m, inputs);
    auto report_or = check_k_agreement_task(protocol, k, inputs);
    ASSERT_TRUE(report_or.is_ok());
    EXPECT_TRUE(report_or.value().ok())
        << "(k,m)=(" << k << "," << m << ")\n"
        << report_or.value().to_string();
  }
}

TEST(TaskCheck, GroupKsaIsTightAtKMinusOne) {
  // The same protocol does NOT solve (k-1)-set agreement: groups decide
  // independent values.
  const auto inputs = iota_inputs(4);
  auto protocol = std::make_shared<GroupKsaProtocol>(2, 2, inputs);
  auto report_or = check_k_agreement_task(protocol, 1, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().violates("agreement"));
}

TEST(TaskCheck, KsaViaOPrimePasses) {
  // O' bundle: level k solves k-set agreement among n_k processes. Here
  // n = (2, ∞): level 1 = 2-consensus, level 2 = 2-SA.
  auto report_or = check_k_agreement_task(
      make_ksa_via_oprime({2, spec::kUnboundedPorts}, 2, iota_inputs(3)), 2,
      iota_inputs(3));
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();

  auto report1_or = check_consensus_task(
      make_ksa_via_oprime({2, spec::kUnboundedPorts}, 1, iota_inputs(2)),
      iota_inputs(2));
  ASSERT_TRUE(report1_or.is_ok());
  EXPECT_TRUE(report1_or.value().ok()) << report1_or.value().to_string();
}

class DacExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(DacExhaustive, AlgorithmTwoSolvesNDac) {
  // Theorem 4.1, machine-checked over all schedules: Algorithm 2 on one
  // n-PAC object satisfies every n-DAC property.
  const int n = GetParam();
  const auto inputs = iota_inputs(n);
  auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
  auto report_or = check_dac_task(protocol, /*distinguished_pid=*/0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
}

INSTANTIATE_TEST_SUITE_P(Sizes, DacExhaustive, ::testing::Values(2, 3, 4));

TEST(TaskCheck, AlgorithmTwoWithOtherDistinguishedPid) {
  // The distinguished process need not be pid 0.
  const auto inputs = iota_inputs(3);
  auto protocol =
      std::make_shared<DacFromPacProtocol>(inputs, /*distinguished_pid=*/2);
  auto report_or = check_dac_task(protocol, 2, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
}

TEST(TaskCheck, BinaryInputsDac) {
  // The paper states n-DAC with *binary* inputs; check 0/1 inputs including
  // the Theorem 4.2 initial configuration (p has 1, everyone else 0).
  const std::vector<Value> inputs{1, 0, 0};
  auto protocol = std::make_shared<DacFromPacProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().to_string();
}

// ----------------------------- negative checks -----------------------------

TEST(TaskCheck, StrawDacFallbackViolatesAgreement) {
  const auto inputs = iota_inputs(3);  // n = 2, n+1 = 3 processes
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"))
      << report_or.value().to_string();
}

TEST(TaskCheck, StrawDacAnnounceViolatesTermination) {
  const auto inputs = iota_inputs(3);
  auto protocol = std::make_shared<StrawDacAnnounceProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  // The ⊥-receiver spinning on the announce register violates solo
  // termination — for p it is Termination(a), for q Termination(b).
  EXPECT_TRUE(report_or.value().violates("termination(a)") ||
              report_or.value().violates("termination(b)"))
      << report_or.value().to_string();
}

TEST(TaskCheck, StrawDacViaOPrimeViolatesAgreement) {
  // Theorem 6.5's predicted failure mode: driving (n+1)-DAC through an
  // actual O'_n object breaks agreement when the overflow proposer falls
  // back to the level-2 set-agreement member.
  const auto inputs = iota_inputs(3);  // n = 2
  auto protocol =
      std::make_shared<protocols::StrawDacOPrimeProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"))
      << report_or.value().to_string();
}

TEST(TaskCheck, StrawNmConsensusViolatesAgreement) {
  // Theorem 5.2's predicted failure mode on the natural (m+1)-consensus
  // candidate over one (n,m)-PAC: the ⊥-receiver's PAC fallback decides its
  // own value against the PROPOSEC winner.
  const auto inputs = iota_inputs(3);  // m = 2, m+1 = 3 processes
  auto protocol =
      std::make_shared<protocols::StrawNmConsensusProtocol>(inputs, 3);
  auto report_or = check_consensus_task(protocol, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("agreement"))
      << report_or.value().to_string();
}

TEST(TaskCheck, FlpRaceViolatesTermination) {
  auto protocol = std::make_shared<FlpRaceProtocol>(5, 3);
  auto report_or = check_consensus_task(protocol, {5, 3});
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_FALSE(report_or.value().ok());
  EXPECT_TRUE(report_or.value().violates("termination"))
      << report_or.value().to_string();
}

TEST(TaskCheck, ViolationReportCarriesTrace) {
  auto protocol = std::make_shared<StrawDacFallbackProtocol>(iota_inputs(3));
  auto report_or = check_dac_task(protocol, 0, iota_inputs(3));
  ASSERT_TRUE(report_or.is_ok());
  ASSERT_FALSE(report_or.value().ok());
  const auto& violation = report_or.value().violations.front();
  EXPECT_FALSE(violation.trace.empty());
  EXPECT_NE(report_or.value().to_string().find("VIOLATION"),
            std::string::npos);
}

// ------------------------ report characterization --------------------------
//
// Byte-for-byte pins of TaskReport::to_string() for the solo-termination
// paths: cycle, abort-in-solo, and budget-exceeded details together with the
// first failing node's trace. Complete unreduced graphs decide solo
// termination on the graph itself; symmetry/POR-reduced and truncated graphs
// re-simulate. Both sources must print exactly these reports. Reports that
// run to hundreds of violations are pinned by length and FNV-1a digest.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(TaskCheckCharacterization, StrawDacAnnounceCycleReport) {
  const auto inputs = iota_inputs(3);
  auto protocol = std::make_shared<StrawDacAnnounceProtocol>(inputs);
  auto report_or = check_dac_task(protocol, 0, inputs);
  ASSERT_TRUE(report_or.is_ok());
  EXPECT_EQ(report_or.value().to_string(),
            "nodes=178 transitions=387\n"
            "VIOLATION [termination(a)]: process p0 can take infinitely many "
            "solo steps without terminating\n"
            "    p1: 2-consensus#0.PROPOSE(101) -> 101\n"
            "    p2: 2-consensus#0.PROPOSE(102) -> 101\n"
            "VIOLATION [termination(b)]: process p1 can take infinitely many "
            "solo steps without terminating\n"
            "    p0: 2-consensus#0.PROPOSE(100) -> 100\n"
            "    p2: 2-consensus#0.PROPOSE(102) -> 100\n"
            "VIOLATION [termination(b)]: process p2 can take infinitely many "
            "solo steps without terminating\n"
            "    p0: 2-consensus#0.PROPOSE(100) -> 100\n"
            "    p1: 2-consensus#0.PROPOSE(101) -> 100");
}

// p writes its input to register R and decides it; q spins reading R until
// it holds a value, then decides that value. q's read of the empty register
// changes nothing, so the initial configuration recurs at flag 1: unlike in
// any corpus DAC task, two nodes share one configuration. Solo runs must
// treat them as one configuration (one memo entry, one cycle), as a
// re-simulating checker does.
class StutterSpinProtocol final : public sim::ProtocolBase {
 public:
  explicit StutterSpinProtocol(std::vector<Value> inputs)
      : ProtocolBase("stutter-spin", 2,
                     {std::make_shared<spec::RegisterType>()}),
        inputs_(std::move(inputs)) {}

  std::vector<std::int64_t> initial_locals(int pid) const override {
    return {inputs_[static_cast<size_t>(pid)]};
  }
  sim::Action next_action(int pid,
                          const sim::ProcessState& state) const override {
    if (state.pc == 1) return sim::Action::decide(state.locals[0]);
    return pid == 0 ? sim::Action::invoke(0, spec::make_write(state.locals[0]))
                    : sim::Action::invoke(0, spec::make_read());
  }
  void on_response(int pid, sim::ProcessState* state,
                   Value response) const override {
    if (pid == 1) {
      if (response == kNil) return;  // stutter: nothing changes
      state->locals[0] = response;
    }
    state->pc = 1;
  }

 private:
  std::vector<Value> inputs_;
};

TEST(TaskCheckCharacterization, FlagTwinsShareOneSoloVerdict) {
  const std::vector<Value> inputs{100, 101};
  auto protocol = std::make_shared<StutterSpinProtocol>(inputs);
  for (const Reduction reduction : {Reduction::kNone, Reduction::kPor}) {
    SCOPED_TRACE(reduction_name(reduction));
    TaskCheckOptions options;
    options.explore.reduction = reduction;
    Explorer explorer(protocol);
    auto graph_or = explorer.explore(
        options.explore,
        [](std::int64_t flag, const sim::Step& step) -> std::int64_t {
          return step.pid != 0 ? 1 : flag;
        },
        /*initial_flag=*/0);
    ASSERT_TRUE(graph_or.is_ok());
    const ConfigGraph& graph = graph_or.value();
    const auto twins = std::count_if(
        graph.nodes().begin(), graph.nodes().end(), [&](const Node& node) {
          return node.config == graph.nodes()[0].config;
        });
    EXPECT_EQ(twins, 2) << "q's stutter re-reaches the initial configuration";

    // At bound 2 the twin is the in-progress start configuration itself: a
    // cycle, not a third visit past the budget.
    for (const std::uint64_t bound : {std::uint64_t{2},
                                      TaskCheckOptions{}.solo_node_bound}) {
      options.solo_node_bound = bound;
      auto report_or = check_dac_task(protocol, 0, inputs, options);
      ASSERT_TRUE(report_or.is_ok()) << report_or.status().to_string();
      EXPECT_EQ(report_or.value().to_string(),
                "nodes=" + std::to_string(graph.nodes().size()) +
                    " transitions=" + std::to_string(graph.transition_count()) +
                    "\nVIOLATION [termination(b)]: process p1 can take "
                    "infinitely many solo steps without terminating")
          << "bound " << bound;
    }
  }
}

// Each process flips a stateless coin, ignores the outcome, and decides its
// input: both outcomes lead to one configuration, so the second is a memo
// hit — which still counts against solo_node_bound.
class BlindCoinProtocol final : public sim::ProtocolBase {
 public:
  BlindCoinProtocol()
      : ProtocolBase("blind-coin", 2, {std::make_shared<spec::CoinType>()}) {}

  std::vector<std::int64_t> initial_locals(int) const override {
    return {kInput};
  }
  sim::Action next_action(int, const sim::ProcessState& state) const override {
    return state.pc == 0 ? sim::Action::invoke(0, spec::make_flip())
                         : sim::Action::decide(state.locals[0]);
  }
  void on_response(int, sim::ProcessState* state, Value) const override {
    state->pc = 1;
  }

  static constexpr Value kInput = 7;
};

TEST(TaskCheckCharacterization, MemoHitsCountAgainstTheSoloBudget) {
  // From the root each solo run visits the root, the flipped configuration,
  // and that configuration again through the second coin outcome: three
  // visits, so bound 2 fails at the root and bound 3 passes.
  auto protocol = std::make_shared<BlindCoinProtocol>();
  const std::vector<Value> inputs(2, BlindCoinProtocol::kInput);
  const std::pair<Reduction, std::string> graphs[] = {
      {Reduction::kNone, "nodes=9 transitions=18"},
      {Reduction::kPor, "nodes=8 transitions=12"},
  };
  for (const auto& [reduction, head] : graphs) {
    SCOPED_TRACE(reduction_name(reduction));
    TaskCheckOptions options;
    options.explore.reduction = reduction;
    options.solo_node_bound = 2;
    auto tight = check_dac_task(protocol, 0, inputs, options);
    ASSERT_TRUE(tight.is_ok()) << tight.status().to_string();
    EXPECT_EQ(tight.value().to_string(),
              head +
                  "\nVIOLATION [termination(a)]: solo-run node budget "
                  "exceeded for p0"
                  "\nVIOLATION [termination(b)]: solo-run node budget "
                  "exceeded for p1");
    options.solo_node_bound = 3;
    auto enough = check_dac_task(protocol, 0, inputs, options);
    ASSERT_TRUE(enough.is_ok()) << enough.status().to_string();
    EXPECT_EQ(enough.value().to_string(), head + " — all properties hold");
  }
}

enum class Mode { kNone, kSymmetry, kPor, kTruncated };

struct PinnedReport {
  const char* task;
  Mode mode;
  std::uint64_t solo_node_bound;
  std::size_t size;
  std::uint64_t digest;
};

TaskCheckOptions pinned_options(const PinnedReport& pin) {
  TaskCheckOptions options;
  options.explore.threads = 1;
  options.solo_node_bound = pin.solo_node_bound;
  // Large enough that every safety violation is listed and the solo pass
  // always runs.
  options.max_violations = 100'000;
  switch (pin.mode) {
    case Mode::kNone:
      break;
    case Mode::kSymmetry:
      options.explore.reduction = Reduction::kSymmetry;
      break;
    case Mode::kPor:
      options.explore.reduction = Reduction::kPor;
      break;
    case Mode::kTruncated:
      options.explore.allow_truncation = true;
      options.explore.max_nodes = 60;
      break;
  }
  return options;
}

// Resolves a registry key, plus "strawdac-announce3": the announce straw-man
// whose ⊥-receiver spins solo (the cycle detail).
NamedTask pinned_task(const std::string& name) {
  if (name == "strawdac-announce3") {
    NamedTask task;
    task.inputs = iota_inputs(3);
    task.protocol = std::make_shared<StrawDacAnnounceProtocol>(task.inputs);
    task.distinguished_pid = 0;
    return task;
  }
  auto task_or = make_named_task(name);
  EXPECT_TRUE(task_or.is_ok()) << task_or.status().to_string();
  return task_or.is_ok() ? std::move(task_or).value() : NamedTask{};
}

TEST(TaskCheckCharacterization, ReportsArePinned) {
  const std::uint64_t kDefaultBound = TaskCheckOptions{}.solo_node_bound;
  const PinnedReport pins[] = {
      {"strawdac-announce3", Mode::kPor, kDefaultBound, 562,
       0xfbd871e571220adcull},
      {"strawdac-announce3", Mode::kTruncated, kDefaultBound, 583,
       0x4bf960114ec5476full},
      {"strawdac-announce3", Mode::kNone, 2, 220, 0xf10db1c78b2c3654ull},
      {"mutant-dac-wrong-abort3", Mode::kNone, kDefaultBound, 29233,
       0x8d281b45cc61a13bull},
      {"mutant-dac-wrong-abort3", Mode::kSymmetry, kDefaultBound, 29233,
       0x8d281b45cc61a13bull},
      {"mutant-dac-wrong-abort3", Mode::kPor, kDefaultBound, 21525,
       0x03d798b5b8d7e857ull},
      {"mutant-dac-wrong-abort3", Mode::kTruncated, kDefaultBound, 2181,
       0x2ff8a872ed03c6dcull},
      {"mutant-dac-wrong-abort3-sym", Mode::kSymmetry, kDefaultBound, 17042,
       0x01346ddbdb8a44beull},
      {"dac3", Mode::kNone, 1, 221, 0xc97154699cc72b4cull},
      {"dac3", Mode::kNone, 2, 221, 0xc97154699cc72b4cull},
      {"dac3", Mode::kNone, 3, 324, 0x8839adce145dd5eaull},
      {"dac3", Mode::kSymmetry, 3, 324, 0x8839adce145dd5eaull},
      {"dac3", Mode::kPor, 3, 323, 0x8970e0edd65104bfull},
      {"dac3", Mode::kTruncated, 3, 345, 0x9fb9a03f246568e2ull},
      {"dac3-sym", Mode::kSymmetry, 3, 365, 0xcbb34e1384029e4full},
      {"dac5", Mode::kNone, 1, 355, 0x80943561d02d9621ull},
      {"dac5", Mode::kNone, 2, 355, 0x80943561d02d9621ull},
      {"dac5", Mode::kNone, 3, 626, 0x9e3a669197bfee74ull},
      {"dac5", Mode::kSymmetry, 3, 626, 0x9e3a669197bfee74ull},
      {"dac5", Mode::kPor, 3, 625, 0x7e59be4445dfb60eull},
      {"dac5", Mode::kTruncated, 3, 643, 0xcc3accf9bc3eaae8ull},
      {"strawdac4", Mode::kNone, 1, 25762, 0x652b27c1e2c14511ull},
      {"strawdac4", Mode::kNone, 2, 26266, 0x2f088b0a6d5e8806ull},
      {"strawdac4", Mode::kNone, 3, 25502, 0xb620b1d35e5ff496ull},
      {"strawdac4", Mode::kSymmetry, 2, 26266, 0x2f088b0a6d5e8806ull},
      {"strawdac4", Mode::kPor, 1, 4233, 0xecf760e28cec6bc1ull},
      {"strawdac4", Mode::kPor, 2, 4897, 0xc0c366dcd04279ebull},
      {"strawdac4", Mode::kTruncated, 1, 307, 0x5bd89ffcab037998ull},
      {"strawdac4", Mode::kTruncated, 2, 811, 0xa7b55873e1c4e28full},
  };
  for (const PinnedReport& pin : pins) {
    SCOPED_TRACE(std::string(pin.task) + " mode " +
                 std::to_string(static_cast<int>(pin.mode)) + " bound " +
                 std::to_string(pin.solo_node_bound));
    const NamedTask task = pinned_task(pin.task);
    ASSERT_NE(task.protocol, nullptr);
    auto report_or = check_dac_task(task.protocol, task.distinguished_pid,
                                    task.inputs, pinned_options(pin));
    ASSERT_TRUE(report_or.is_ok()) << report_or.status().to_string();
    const std::string text = report_or.value().to_string();
    EXPECT_EQ(text.size(), pin.size) << text;
    EXPECT_EQ(fnv1a(text), pin.digest)
        << "0x" << std::hex << fnv1a(text) << std::dec << "\n" << text;
  }
}

TEST(TaskCheck, RejectsMaxViolationsBelowOne) {
  // With a limit below 1 the report was "full" before the first node, so a
  // broken task came back clean having checked nothing.
  for (const char* name :
       {"strawdac3", "mutant-dac-no-adopt3", "mutant-2sa4"}) {
    auto task_or = make_named_task(name);
    ASSERT_TRUE(task_or.is_ok()) << task_or.status().to_string();
    const NamedTask& task = task_or.value();
    for (const int limit : {0, -1}) {
      SCOPED_TRACE(std::string(name) + " max_violations " +
                   std::to_string(limit));
      TaskCheckOptions options;
      options.max_violations = limit;
      auto report_or =
          task.distinguished_pid >= 0
              ? check_dac_task(task.protocol, task.distinguished_pid,
                               task.inputs, options)
              : check_k_agreement_task(task.protocol, task.k, task.inputs,
                                       options);
      ASSERT_FALSE(report_or.is_ok());
      EXPECT_EQ(report_or.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(report_or.status().message().find("max_violations"),
                std::string::npos);
    }
  }
}

TEST(TaskCheck, BudgetExhaustionSurfacesAsStatus) {
  auto protocol = std::make_shared<DacFromPacProtocol>(iota_inputs(3));
  TaskCheckOptions options;
  options.explore.max_nodes = 3;
  auto report_or = check_dac_task(protocol, 0, iota_inputs(3), options);
  EXPECT_FALSE(report_or.is_ok());
  EXPECT_EQ(report_or.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace lbsa::modelcheck
