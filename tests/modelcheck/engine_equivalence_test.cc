// Cross-engine equivalence: on complete explorations every engine, at every
// thread count, under every reduction mode, produces the ConfigGraph
// bit-identical to the serial reference. The work-stealing engine has no
// level barriers, yet max_levels and periodic checkpoints pause it at exact
// level boundaries: a bounded run is again the exact serial prefix, its
// checkpoint files are byte-identical to the serial engine's, and every
// engine resumes every other engine's file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "modelcheck/checkpoint.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "obs/heartbeat.h"
#include "sim/symmetry.h"

namespace lbsa::modelcheck {
namespace {

constexpr Reduction kAllModes[] = {Reduction::kNone, Reduction::kSymmetry,
                                   Reduction::kPor, Reduction::kBoth};

// Small corpus tasks with distinct shapes: symmetric DACs (non-trivial
// orbit), a consensus tree, a violation generator with cycles.
const char* kTasks[] = {"dac3-sym", "dac4-sym", "consensus4-sym",
                        "strawdac3"};

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

void expect_identical(const ConfigGraph& a, const ConfigGraph& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  EXPECT_EQ(a.transition_count(), b.transition_count());
  EXPECT_EQ(a.truncated(), b.truncated());
  EXPECT_EQ(a.interrupted(), b.interrupted());
  EXPECT_EQ(a.levels_completed(), b.levels_completed());
  EXPECT_EQ(a.pending_frontier(), b.pending_frontier());
  for (std::uint32_t id = 0; id < a.nodes().size(); ++id) {
    ASSERT_TRUE(a.nodes()[id].config == b.nodes()[id].config)
        << "config mismatch at node " << id;
    EXPECT_EQ(a.nodes()[id].flag, b.nodes()[id].flag);
    EXPECT_EQ(a.nodes()[id].depth, b.nodes()[id].depth);
    ASSERT_TRUE(std::ranges::equal(a.edges(id), b.edges(id)))
        << "edges mismatch at " << id;
    EXPECT_EQ(a.path_to(id), b.path_to(id)) << "path mismatch at " << id;
  }
}

TEST(EngineEquivalence, AllEnginesBitIdenticalAcrossReductionsAndThreads) {
  // The orbit cache is declared a pure accelerator: the cache-off column is
  // the reference and every cache-on run must reproduce it bit for bit.
  // Cache-on runs pass an explicit pool — explore() only auto-creates one
  // for groups of 64+, and these corpus tasks are all smaller, so relying
  // on canon_cache_bytes alone would quietly test nothing.
  auto fresh_pool = [] {
    return std::make_shared<sim::CanonCachePool>(
        ExploreOptions{}.canon_cache_bytes);
  };
  const bool kCacheModes[] = {false, true};
  for (const char* name : kTasks) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    for (Reduction reduction : kAllModes) {
      SCOPED_TRACE(reduction_name(reduction));
      ExploreOptions base;
      base.reduction = reduction;
      base.engine = ExploreEngine::kSerial;
      base.canon_cache_bytes = 0;  // uncached serial reference
      const ConfigGraph serial = explore_or_die(task, base);
      EXPECT_EQ(serial.engine_used(), ExploreEngine::kSerial);
      ExploreOptions cached = base;
      cached.canon_cache_bytes = ExploreOptions{}.canon_cache_bytes;
      cached.canon_cache_pool = fresh_pool();
      expect_identical(serial, explore_or_die(task, cached));
      for (int threads : {1, 2, 8}) {
        for (bool use_cache : kCacheModes) {
          SCOPED_TRACE(std::string("workstealing t") +
                       std::to_string(threads) +
                       (use_cache ? " cache" : " nocache"));
          ExploreOptions opts;
          opts.reduction = reduction;
          opts.engine = ExploreEngine::kWorkStealing;
          opts.threads = threads;
          if (use_cache) opts.canon_cache_pool = fresh_pool();
          const ConfigGraph graph = explore_or_die(task, opts);
          EXPECT_EQ(graph.engine_used(), ExploreEngine::kWorkStealing);
          expect_identical(serial, graph);
        }
      }
    }
  }
}

TEST(EngineEquivalence, SharedWarmCachePoolKeepsGraphsIdentical) {
  // The hierarchy-sweep pattern: one pool reused across runs, so later
  // runs answer mostly from a warm cache — and must still reproduce the
  // uncached reference exactly, serial and work-stealing alike.
  const NamedTask task = get_task("dac4-sym");
  ExploreOptions base;
  base.reduction = Reduction::kSymmetry;
  base.engine = ExploreEngine::kSerial;
  base.canon_cache_bytes = 0;
  const ConfigGraph reference = explore_or_die(task, base);
  auto pool = std::make_shared<sim::CanonCachePool>(std::size_t{1} << 20);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(run);
    ExploreOptions opts;
    opts.reduction = Reduction::kSymmetry;
    opts.engine =
        run == 2 ? ExploreEngine::kWorkStealing : ExploreEngine::kSerial;
    opts.threads = run == 2 ? 4 : 1;
    opts.canon_cache_pool = pool;
    expect_identical(reference, explore_or_die(task, opts));
  }
}

TEST(EngineEquivalence, WorkStealingMaxLevelsTrimsToSerialPrefix) {
  // A depth-bounded work-stealing run must land on the same graph as the
  // serial engine interrupted at the same boundary: same prefix, same
  // pending frontier, levels_completed == the bound.
  const NamedTask task = get_task("dac3-sym");
  for (Reduction reduction : kAllModes) {
    SCOPED_TRACE(reduction_name(reduction));
    for (std::uint32_t levels : {1u, 2u, 4u}) {
      SCOPED_TRACE(levels);
      ExploreOptions serial_opts;
      serial_opts.reduction = reduction;
      serial_opts.engine = ExploreEngine::kSerial;
      serial_opts.max_levels = levels;
      const ConfigGraph serial = explore_or_die(task, serial_opts);
      ASSERT_TRUE(serial.interrupted());
      for (int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ExploreOptions opts;
        opts.reduction = reduction;
        opts.engine = ExploreEngine::kWorkStealing;
        opts.threads = threads;
        opts.max_levels = levels;
        const ConfigGraph ws = explore_or_die(task, opts);
        EXPECT_TRUE(ws.interrupted());
        EXPECT_EQ(ws.levels_completed(), levels);
        expect_identical(serial, ws);
      }
    }
  }
}

TEST(EngineEquivalence, ResumeHopsAcrossAllThreeEngines) {
  // serial (2 levels) -> work-stealing (2 more) -> auto at 4 threads (to
  // completion): every hop checkpoints, every hop resumes the previous
  // engine's file, and the final graph is bit-identical to one
  // uninterrupted serial run.
  const NamedTask task = get_task("dac4-sym");
  for (Reduction reduction : {Reduction::kNone, Reduction::kBoth}) {
    SCOPED_TRACE(reduction_name(reduction));
    ExploreOptions base;
    base.reduction = reduction;
    base.engine = ExploreEngine::kSerial;
    const ConfigGraph uninterrupted = explore_or_die(task, base);

    const std::string path1 = testing::TempDir() + "/hop1.ckpt";
    const std::string path2 = testing::TempDir() + "/hop2.ckpt";

    ExploreOptions hop1;
    hop1.reduction = reduction;
    hop1.engine = ExploreEngine::kSerial;
    hop1.max_levels = 2;
    hop1.checkpoint_path = path1;
    hop1.checkpoint_label = task.name;
    const ConfigGraph partial1 = explore_or_die(task, hop1);
    ASSERT_TRUE(partial1.interrupted());
    auto cp1 = read_explore_checkpoint(path1);
    ASSERT_TRUE(cp1.is_ok()) << cp1.status().to_string();

    ExploreOptions hop2;
    hop2.reduction = reduction;
    hop2.engine = ExploreEngine::kWorkStealing;
    hop2.threads = 4;
    hop2.max_levels = 2;
    hop2.checkpoint_path = path2;
    hop2.checkpoint_label = task.name;
    hop2.resume = &cp1.value();
    const ConfigGraph partial2 = explore_or_die(task, hop2);
    ASSERT_TRUE(partial2.interrupted());
    EXPECT_EQ(partial2.levels_completed(), 4u);
    auto cp2 = read_explore_checkpoint(path2);
    ASSERT_TRUE(cp2.is_ok()) << cp2.status().to_string();

    ExploreOptions hop3;
    hop3.reduction = reduction;
    hop3.engine = ExploreEngine::kAuto;
    hop3.threads = 4;
    hop3.resume = &cp2.value();
    const ConfigGraph final_graph = explore_or_die(task, hop3);
    EXPECT_EQ(final_graph.engine_used(), ExploreEngine::kWorkStealing);
    EXPECT_FALSE(final_graph.interrupted());
    expect_identical(uninterrupted, final_graph);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(EngineEquivalence, WorkStealingPeriodicCheckpointMatchesSerial) {
  // Periodic checkpoints pause work stealing at exact level boundaries: the
  // last checkpoint a complete run leaves behind is byte-identical to the
  // serial engine's under the same options, and resumes to the
  // uninterrupted graph.
  for (const char* name : {"dac3-sym", "dac5"}) {
    SCOPED_TRACE(name);
    const NamedTask task = get_task(name);
    ExploreOptions base;
    base.engine = ExploreEngine::kSerial;
    const ConfigGraph uninterrupted = explore_or_die(task, base);

    const std::string serial_path = testing::TempDir() + "/periodic-s.ckpt";
    ExploreOptions serial_opts = base;
    serial_opts.checkpoint_path = serial_path;
    serial_opts.checkpoint_every_levels = 2;
    serial_opts.checkpoint_label = task.name;
    expect_identical(uninterrupted, explore_or_die(task, serial_opts));
    const std::string serial_bytes = slurp(serial_path);
    ASSERT_FALSE(serial_bytes.empty());

    const std::string ws_path = testing::TempDir() + "/periodic-ws.ckpt";
    ExploreOptions ws_opts = serial_opts;
    ws_opts.engine = ExploreEngine::kWorkStealing;
    ws_opts.threads = 4;
    ws_opts.checkpoint_path = ws_path;
    expect_identical(uninterrupted, explore_or_die(task, ws_opts));
    EXPECT_TRUE(slurp(ws_path) == serial_bytes)
        << "work-stealing checkpoint differs from the serial engine's";

    auto cp = read_explore_checkpoint(ws_path);
    ASSERT_TRUE(cp.is_ok()) << cp.status().to_string();
    EXPECT_GT(cp.value().levels_completed, 0u);
    EXPECT_EQ(cp.value().levels_completed % 2, 0u);
    ExploreOptions res;
    res.engine = ExploreEngine::kWorkStealing;
    res.threads = 4;
    res.resume = &cp.value();
    expect_identical(uninterrupted, explore_or_die(task, res));
  }
}

TEST(EngineEquivalence, WorkStealingMaxLevelsIsExactAndDeterministic) {
  // max_levels pauses work stealing at exactly the requested boundary: at
  // every worker count and on every repetition the result is the serial
  // engine's graph interrupted there, never a shallower trim.
  const NamedTask task = get_task("dac5");
  for (std::uint32_t levels : {6u, 8u, 12u, 14u}) {
    SCOPED_TRACE(levels);
    ExploreOptions serial_opts;
    serial_opts.engine = ExploreEngine::kSerial;
    serial_opts.max_levels = levels;
    const ConfigGraph serial = explore_or_die(task, serial_opts);
    ASSERT_TRUE(serial.interrupted());
    ASSERT_EQ(serial.levels_completed(), levels);
    for (int threads : {2, 4, 8}) {
      for (int rep = 0; rep < 3; ++rep) {
        SCOPED_TRACE("t" + std::to_string(threads) + " rep " +
                     std::to_string(rep));
        ExploreOptions opts;
        opts.engine = ExploreEngine::kWorkStealing;
        opts.threads = threads;
        opts.max_levels = levels;
        const ConfigGraph ws = explore_or_die(task, opts);
        EXPECT_EQ(ws.levels_completed(), levels);
        expect_identical(serial, ws);
      }
    }
  }
}

TEST(EngineEquivalence, AutoRunsWorkStealingAboveOneThread) {
  const NamedTask task = get_task("dac5");
  ExploreOptions serial_opts;
  serial_opts.engine = ExploreEngine::kSerial;
  const ConfigGraph serial = explore_or_die(task, serial_opts);
  ExploreOptions opts;
  opts.engine = ExploreEngine::kAuto;
  opts.threads = 4;
  const ConfigGraph graph = explore_or_die(task, opts);
  EXPECT_EQ(graph.engine_used(), ExploreEngine::kWorkStealing);
  expect_identical(serial, graph);
  opts.threads = 1;
  EXPECT_EQ(explore_or_die(task, opts).engine_used(), ExploreEngine::kSerial);
}

TEST(EngineEquivalence, RejectsThreadsOutOfRange) {
  // Every worker is an OS thread, so an unbounded count is a resource
  // hazard: explore() refuses it before any engine (and so any worker)
  // starts. Engines announce their pool to the run's Progress on start;
  // an untouched pool size proves none did.
  const NamedTask task = get_task("dac3");
  Explorer explorer(task.protocol);
  obs::Progress progress;
  for (int threads : {-1, kMaxExploreThreads + 1,
                      std::numeric_limits<int>::max()}) {
    for (ExploreEngine engine :
         {ExploreEngine::kAuto, ExploreEngine::kWorkStealing}) {
      SCOPED_TRACE(std::to_string(threads) + " " + engine_name(engine));
      ExploreOptions opts;
      opts.engine = engine;
      opts.threads = threads;
      opts.progress = &progress;
      const auto graph = explorer.explore(opts);
      ASSERT_FALSE(graph.is_ok());
      EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(graph.status().message().find("threads"), std::string::npos)
          << graph.status().to_string();
      EXPECT_EQ(progress.worker_count(), 0);
    }
  }
  ExploreOptions edge;
  edge.engine = ExploreEngine::kWorkStealing;
  edge.threads = 2;
  EXPECT_TRUE(explorer.explore(edge).is_ok());
}

TEST(EngineEquivalence, ParseAndNames) {
  EXPECT_STREQ(engine_name(ExploreEngine::kAuto), "auto");
  EXPECT_STREQ(engine_name(ExploreEngine::kSerial), "serial");
  EXPECT_STREQ(engine_name(ExploreEngine::kWorkStealing), "workstealing");
  for (const char* name : {"auto", "serial", "workstealing"}) {
    const auto parsed = parse_engine(name);
    ASSERT_TRUE(parsed.is_ok()) << name;
    EXPECT_STREQ(engine_name(parsed.value()), name);
  }
  EXPECT_EQ(parse_engine("stealing").status().code(),
            StatusCode::kInvalidArgument);
  const auto removed = parse_engine("parallel");
  ASSERT_FALSE(removed.is_ok());
  EXPECT_EQ(removed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(removed.status().message().find("known: auto, serial, "
                                            "workstealing"),
            std::string::npos)
      << removed.status().to_string();
}

TEST(EngineEquivalence, WorkStealingTruncatedGraphIsConsistent) {
  // Truncated prefixes are schedule-dependent for every engine; what the
  // work-stealing engine still owes is internal consistency and replayable
  // parent chains.
  const NamedTask task = get_task("strawdac3");
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    ExploreOptions opts;
    opts.max_nodes = 50;
    opts.allow_truncation = true;
    opts.engine = ExploreEngine::kWorkStealing;
    opts.threads = threads;
    const ConfigGraph graph = explore_or_die(task, opts);
    EXPECT_TRUE(graph.truncated());
    for (std::uint32_t id = 0; id < graph.nodes().size(); ++id) {
      for (const Edge& e : graph.edges(id)) {
        ASSERT_LT(e.to, graph.nodes().size());
      }
      sim::Config config = sim::initial_config(*task.protocol);
      for (const sim::Step& step : graph.path_to(id)) {
        sim::apply_step(*task.protocol, &config, step.pid,
                        step.outcome_choice);
      }
      EXPECT_EQ(config, graph.nodes()[id].config);
    }
  }
}

}  // namespace
}  // namespace lbsa::modelcheck
