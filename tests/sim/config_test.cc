// Tests for the configuration semantics: initial configs, step application,
// successor enumeration, encoding/hashing.
#include "sim/config.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/dac_from_pac.h"
#include "protocols/one_shot.h"

namespace lbsa::sim {
namespace {

using protocols::DacFromPacProtocol;
using protocols::make_consensus_via_n_consensus;
using protocols::make_ksa_via_two_sa;

TEST(Config, InitialConfigShape) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  const Config config = initial_config(*protocol);
  ASSERT_EQ(config.procs.size(), 3u);
  ASSERT_EQ(config.objects.size(), 1u);
  for (const ProcessState& ps : config.procs) {
    EXPECT_TRUE(ps.running());
    EXPECT_EQ(ps.pc, 0);
  }
  EXPECT_EQ(config.procs[0].locals[0], 10);
  EXPECT_EQ(config.procs[2].locals[0], 30);
  EXPECT_EQ(config.enabled_count(), 3);
  EXPECT_FALSE(config.halted());
}

TEST(Config, EncodeDistinguishesConfigs) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config a = initial_config(*protocol);
  Config b = a;
  EXPECT_EQ(a.encode(), b.encode());
  EXPECT_EQ(a.hash(), b.hash());
  apply_step(*protocol, &b, 0, 0);
  EXPECT_NE(a.encode(), b.encode());
  EXPECT_NE(a, b);
}

TEST(Config, EncodeIntoMatchesEncodeAndReservesExactly) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  Config config = initial_config(*protocol);
  std::vector<std::int64_t> scratch{1, 2, 3};  // stale content is discarded
  for (int step = 0; step < 6; ++step) {
    config.encode_into(&scratch);
    EXPECT_EQ(scratch, config.encode());
    EXPECT_EQ(scratch.size(), config.encoded_size());
    // A fresh buffer gets one exact-size allocation, no growth.
    std::vector<std::int64_t> fresh;
    config.encode_into(&fresh);
    EXPECT_EQ(fresh.capacity(), config.encoded_size());
    apply_step(*protocol, &config, step % 3, 0);
  }
}

TEST(Config, DecodeRoundTripsAndViewReadsTheWords) {
  auto protocol = std::make_shared<DacFromPacProtocol>(
      std::vector<Value>{10, 20, 30});
  Config config = initial_config(*protocol);
  Config reused;
  for (int step = 0; step < 8 && !config.halted(); ++step) {
    const std::vector<std::int64_t> words = config.encode();
    auto decoded = decode_config(words);
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value(), config);
    ASSERT_TRUE(decode_config_into(words, &reused).is_ok());
    EXPECT_EQ(reused, config);

    const ConfigView view(words);
    ASSERT_EQ(view.process_count(), static_cast<int>(config.procs.size()));
    for (int pid = 0; pid < view.process_count(); ++pid) {
      const ProcessState& ps = config.procs[static_cast<size_t>(pid)];
      const ConfigView::Process vp = view.proc(pid);
      EXPECT_EQ(vp.status, ps.status);
      EXPECT_EQ(vp.decision, ps.decision);
      EXPECT_EQ(vp.pc, ps.pc);
      EXPECT_TRUE(std::ranges::equal(vp.locals, ps.locals));
    }
    EXPECT_EQ(view.enabled_count(), config.enabled_count());
    EXPECT_EQ(view.halted(), config.halted());
    int pid = step % 3;
    while (!config.enabled(pid)) pid = (pid + 1) % 3;
    apply_step(*protocol, &config, pid, 0);
  }
}

// Counts are checked against the words left before anything is reserved:
// a two-word input claiming a million processes fails at once.
TEST(Config, DecodeRejectsCountsBeyondTheWordsLeft) {
  const std::vector<std::vector<std::int64_t>> malformed = {
      {1000000, 0},
      {0, 1000000},
      {1, 0, 0, 0, 1000000, 0},
      {0, 1, 1000000},
      {-1, 0},
      {0, -1},
      {1, 0, 0, 0},  // a process record needs four words
      {0, 0, 7},     // trailing word
  };
  for (const auto& words : malformed) {
    const auto decoded = decode_config(words);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << words.size() << " words";
  }
  EXPECT_TRUE(decode_config(std::vector<std::int64_t>{0, 0}).is_ok());
}

TEST(Config, ApplyStepAdvancesOneProcessOnly) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config config = initial_config(*protocol);
  const Step step = apply_step(*protocol, &config, 1, 0);
  EXPECT_EQ(step.pid, 1);
  EXPECT_EQ(step.response, 20);  // first propose wins with its own value
  EXPECT_EQ(config.procs[0].pc, 0);
  EXPECT_EQ(config.procs[1].pc, 1);
}

TEST(Config, DecideStepTerminatesProcess) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config config = initial_config(*protocol);
  apply_step(*protocol, &config, 0, 0);  // propose
  const Step step = apply_step(*protocol, &config, 0, 0);  // local decide
  EXPECT_EQ(step.action.kind, Action::Kind::kDecide);
  EXPECT_TRUE(config.procs[0].decided());
  EXPECT_EQ(config.procs[0].decision, 10);
  EXPECT_FALSE(config.enabled(0));
}

TEST(Config, SuccessorsOfDeterministicStepIsSingleton) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  const Config config = initial_config(*protocol);
  std::vector<Successor> succs;
  enumerate_successors(*protocol, config, 0, &succs);
  EXPECT_EQ(succs.size(), 1u);
  EXPECT_EQ(outcome_count(*protocol, config, 0), 1);
}

TEST(Config, SuccessorsEnumerateKsaNondeterminism) {
  auto protocol = make_ksa_via_two_sa({10, 20, 30});
  Config config = initial_config(*protocol);
  apply_step(*protocol, &config, 0, 0);  // STATE = {10}
  // Second proposer: STATE = {10, 20}, response may be either member.
  std::vector<Successor> succs;
  enumerate_successors(*protocol, config, 1, &succs);
  ASSERT_EQ(succs.size(), 2u);
  EXPECT_EQ(outcome_count(*protocol, config, 1), 2);
  EXPECT_NE(succs[0].step.response, succs[1].step.response);
  // Both leave the same object state (the response choice is independent).
  EXPECT_EQ(succs[0].config.objects[0], succs[1].config.objects[0]);
}

TEST(Config, StepToStringIsReadable) {
  auto protocol = make_consensus_via_n_consensus({10, 20});
  Config config = initial_config(*protocol);
  const Step s = apply_step(*protocol, &config, 0, 0);
  const std::string text = s.to_string(*protocol);
  EXPECT_NE(text.find("p0"), std::string::npos);
  EXPECT_NE(text.find("PROPOSE"), std::string::npos);
  EXPECT_NE(text.find("10"), std::string::npos);
}

}  // namespace
}  // namespace lbsa::sim
