// Per-run live progress (ExploreOptions::progress, obs/heartbeat.h): every
// exploration publishes into the Progress its caller handed it and no
// other, so concurrent runs keep separate totals, back-to-back runs into one
// object add up, and a resumed run starts from the checkpoint's totals on
// its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "modelcheck/cancel.h"
#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "obs/heartbeat.h"

namespace lbsa::modelcheck {
namespace {

NamedTask get_task(const std::string& name) {
  auto task = make_named_task(name);
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
  return task.value();
}

ConfigGraph explore_or_die(const NamedTask& task, const ExploreOptions& opts) {
  Explorer explorer(task.protocol);
  auto graph = explorer.explore(opts);
  EXPECT_TRUE(graph.is_ok()) << graph.status().to_string();
  return std::move(graph).value();
}

std::uint64_t nodes_of(const obs::Progress& p) {
  return p.nodes_total.load(std::memory_order_relaxed);
}
std::uint64_t transitions_of(const obs::Progress& p) {
  return p.transitions_total.load(std::memory_order_relaxed);
}

// A serial and a work-stealing exploration in flight at the same time, each
// into its own Progress: neither sees the other's work.
TEST(RunProgress, ConcurrentRunsPublishIntoTheirOwnProgress) {
  const NamedTask dac5 = get_task("dac5");
  const NamedTask dac4 = get_task("dac4-sym");
  obs::Progress serial_progress;
  obs::Progress stealing_progress;
  ExploreOptions serial;
  serial.engine = ExploreEngine::kSerial;
  serial.threads = 1;
  serial.progress = &serial_progress;
  ExploreOptions stealing;
  stealing.engine = ExploreEngine::kWorkStealing;
  stealing.threads = 2;
  stealing.progress = &stealing_progress;

  ConfigGraph serial_graph;
  ConfigGraph stealing_graph;
  std::thread a([&] { serial_graph = explore_or_die(dac5, serial); });
  std::thread b([&] { stealing_graph = explore_or_die(dac4, stealing); });
  a.join();
  b.join();

  EXPECT_EQ(nodes_of(serial_progress), serial_graph.nodes().size());
  EXPECT_EQ(transitions_of(serial_progress), serial_graph.transition_count());
  EXPECT_EQ(serial_progress.levels_completed.load(),
            serial_graph.levels_completed());
  EXPECT_EQ(nodes_of(stealing_progress), stealing_graph.nodes().size());
  EXPECT_EQ(transitions_of(stealing_progress),
            stealing_graph.transition_count());
  EXPECT_EQ(stealing_progress.levels_completed.load(),
            stealing_graph.levels_completed());
  EXPECT_EQ(stealing_progress.worker_count(), 2);
}

// Runs sharing one Progress (a hierarchy sweep's cells) add up.
TEST(RunProgress, BackToBackRunsAccumulate) {
  const NamedTask task = get_task("dac4-sym");
  obs::Progress progress;
  std::uint64_t nodes = 0;
  std::uint64_t transitions = 0;
  for (const auto engine :
       {ExploreEngine::kSerial, ExploreEngine::kWorkStealing}) {
    ExploreOptions opts;
    opts.engine = engine;
    opts.threads = engine == ExploreEngine::kSerial ? 1 : 2;
    opts.progress = &progress;
    const ConfigGraph graph = explore_or_die(task, opts);
    nodes += graph.nodes().size();
    transitions += graph.transition_count();
    EXPECT_EQ(nodes_of(progress), nodes) << engine_name(engine);
    EXPECT_EQ(transitions_of(progress), transitions) << engine_name(engine);
  }
}

// The engine, not its caller, carries a resumed run's counts forward: a
// fresh Progress starts at the checkpoint's totals and ends at the complete
// graph's.
TEST(RunProgress, ResumedRunStartsAtCheckpointTotals) {
  const NamedTask task = get_task("dac4-sym");
  const ConfigGraph full = explore_or_die(task, {});
  const std::string path = testing::TempDir() + "/run_progress.ckpt";
  ExploreOptions first;
  first.max_levels = 4;
  first.checkpoint_path = path;
  ASSERT_TRUE(explore_or_die(task, first).interrupted());
  auto cp = read_explore_checkpoint(path);
  ASSERT_TRUE(cp.is_ok()) << cp.status().to_string();

  for (const auto engine :
       {ExploreEngine::kSerial, ExploreEngine::kWorkStealing}) {
    SCOPED_TRACE(engine_name(engine));
    const int threads = engine == ExploreEngine::kSerial ? 1 : 2;
    // Cancelled at once: the run stops at its first chance, and the
    // published totals are the checkpoint's plus whatever it finished.
    {
      CancelToken cancel;
      cancel.cancel();
      obs::Progress progress;
      ExploreOptions opts;
      opts.engine = engine;
      opts.threads = threads;
      opts.resume = &cp.value();
      opts.cancel = &cancel;
      opts.progress = &progress;
      const ConfigGraph prefix = explore_or_die(task, opts);
      ASSERT_TRUE(prefix.interrupted());
      EXPECT_GE(nodes_of(progress), cp.value().node_words.size());
      EXPECT_EQ(nodes_of(progress), prefix.nodes().size());
      EXPECT_EQ(transitions_of(progress), prefix.transition_count());
      EXPECT_EQ(progress.levels_completed.load(), prefix.levels_completed());
    }
    obs::Progress progress;
    ExploreOptions opts;
    opts.engine = engine;
    opts.threads = threads;
    opts.resume = &cp.value();
    opts.progress = &progress;
    const ConfigGraph resumed = explore_or_die(task, opts);
    ASSERT_FALSE(resumed.interrupted());
    EXPECT_EQ(nodes_of(progress), full.nodes().size());
    EXPECT_EQ(transitions_of(progress), full.transition_count());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lbsa::modelcheck
