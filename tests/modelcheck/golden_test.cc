// Golden digests: byte-level outputs pinned to recorded values.
//
// The engine-equivalence and checkpoint tests compare engines with each
// other, so a change that shifts every engine's bytes at once (a new graph
// layout, a different checkpoint writer, a reordered report) would pass
// them. These tests pin the absolute bytes instead: the checkpoint files of
// two small explorations interrupted at three levels, and the TaskReport
// text of a clean check and of two failing mutants (whose traces pin
// path_to, lifted paths included). Each is produced by both engines.
//
// The digest is hash_words over the bytes, one word per byte. A deliberate
// format change re-records the constants below, and says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "base/hashing.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/task_check.h"

namespace lbsa::modelcheck {
namespace {

struct Digest {
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.size << "u, 0x" << std::hex << d.hash << std::dec
            << "ull}";
}

Digest digest_of(const std::string& bytes) {
  std::vector<std::int64_t> words;
  words.reserve(bytes.size());
  for (unsigned char c : bytes) words.push_back(c);
  return Digest{bytes.size(), hash_words(words)};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

NamedTask get_task(const std::string& name) {
  auto task = make_named_task(name);
  EXPECT_TRUE(task.is_ok()) << task.status().to_string();
  return task.value();
}

// The serial engine and work stealing at two workers.
void set_engine(ExploreOptions* opts, bool work_stealing) {
  opts->engine =
      work_stealing ? ExploreEngine::kWorkStealing : ExploreEngine::kSerial;
  opts->threads = work_stealing ? 2 : 1;
}

TEST(Golden, CheckpointBytesAtThreeLevels) {
  struct Case {
    const char* task;
    Reduction reduction;
    Digest want;
  };
  const Case cases[] = {
      {"dac3", Reduction::kNone, {13432u, 0x6f068a69c7ec1dbeull}},
      {"dac4-sym", Reduction::kSymmetry, {9960u, 0x846982752afd1d41ull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.task);
    const NamedTask task = get_task(c.task);
    for (bool work_stealing : {false, true}) {
      SCOPED_TRACE(work_stealing ? "workstealing" : "serial");
      const std::string path = testing::TempDir() + "/golden.ckpt";
      ExploreOptions opts;
      set_engine(&opts, work_stealing);
      opts.reduction = c.reduction;
      opts.max_levels = 3;
      opts.checkpoint_path = path;
      opts.checkpoint_label = task.name;
      auto graph = Explorer(task.protocol).explore(opts);
      ASSERT_TRUE(graph.is_ok()) << graph.status().to_string();
      ASSERT_TRUE(graph.value().interrupted());
      EXPECT_EQ(digest_of(read_file(path)), c.want);
    }
  }
}

TEST(Golden, TaskReportText) {
  struct Case {
    const char* task;
    Reduction reduction;
    Digest want;
  };
  const Case cases[] = {
      {"dac3", Reduction::kNone, {50u, 0x86001e36e9ab03adull}},
      {"mutant-dac-no-adopt3", Reduction::kNone,
       {2071u, 0xb8891dac88831fcfull}},
      {"mutant-dac-no-adopt3-sym", Reduction::kSymmetry,
       {2454u, 0xdd1194501b572c7ull}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.task);
    const NamedTask task = get_task(c.task);
    for (bool work_stealing : {false, true}) {
      SCOPED_TRACE(work_stealing ? "workstealing" : "serial");
      TaskCheckOptions opts;
      set_engine(&opts.explore, work_stealing);
      opts.explore.reduction = c.reduction;
      auto report = check_dac_task(task.protocol, task.distinguished_pid,
                                   task.inputs, opts);
      ASSERT_TRUE(report.is_ok()) << report.status().to_string();
      EXPECT_EQ(digest_of(report.value().to_string()), c.want);
    }
  }
}

}  // namespace
}  // namespace lbsa::modelcheck
