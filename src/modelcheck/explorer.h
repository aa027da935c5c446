// Exhaustive reachability analysis over protocol configurations.
//
// The Explorer enumerates *every* configuration reachable from the initial
// one — over all interleavings of process steps and all nondeterministic
// object outcomes — and materializes the transition graph. This is the
// machine-checkable counterpart of the paper's proof language: "configuration
// C reachable from I", "history H applicable to C", "step e_p of p".
//
// Optionally, exploration can be *augmented* with a path flag: a small
// integer folded along every path (e.g. "has any process other than p taken
// a step yet?"), in which case graph nodes are (configuration, flag) pairs.
// The DAC Nontriviality property needs exactly this, since it constrains the
// history that leads to a configuration, not the configuration itself.
#ifndef LBSA_MODELCHECK_EXPLORER_H_
#define LBSA_MODELCHECK_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/check.h"
#include "base/status.h"
#include "modelcheck/cancel.h"
#include "sim/config.h"
#include "sim/protocol.h"
#include "sim/symmetry.h"

namespace lbsa::obs {
class Progress;  // obs/heartbeat.h
}  // namespace lbsa::obs

namespace lbsa::modelcheck {

struct ExploreCheckpoint;  // modelcheck/checkpoint.h

namespace internal {
// Grants the explorer's canonical-renumbering machinery (explorer.cc)
// access to ConfigGraph internals; the work-stealing engine builds and trims
// graphs through it.
struct GraphBuilder;
}  // namespace internal

// Which exploration engine to run.
//   kSerial — the reference implementation; defines the canonical graph.
//   kWorkStealing — per-worker deques with chunked stealing over a batched
//     lock-free intern table, renumbered into the canonical order at the
//     end. It has no level barriers; max_levels and periodic checkpoints
//     pause it at exact level boundaries, and cancel/deadline trim the
//     result back to the deepest complete level (see docs/checking.md,
//     "Engine selection").
//   kAuto — kSerial at one thread, kWorkStealing at more.
// All engines produce bit-identical complete graphs (canonical
// renumbering) and bit-identical max_levels prefixes; the explicit values
// exist for equivalence testing and benchmarking.
enum class ExploreEngine {
  kAuto = 0,
  kSerial,
  kWorkStealing,
};

// Upper bound on ExploreOptions::threads: explore() rejects anything above
// it (and anything negative) before starting a worker.
inline constexpr int kMaxExploreThreads = 256;

// Stable short name for CLI flags and run reports: "auto", "serial",
// "workstealing".
const char* engine_name(ExploreEngine engine);
// Inverse of engine_name(); INVALID_ARGUMENT on anything else.
StatusOr<ExploreEngine> parse_engine(const std::string& name);

// State-space reductions (docs/checking.md, "State-space reduction"):
//   kSymmetry — intern only the lexicographically-minimal pid renaming of
//     each configuration, exploring the quotient graph under the protocol's
//     declared symmetry() group. No-op for protocols with a trivial group.
//   kPor — partial-order reduction: when some process's next action is a
//     deterministic, purely-local step (decide/abort — no shared-object
//     invoke) that also preserves the path flag, expand only the smallest
//     such process. Local steps commute with every other step and strictly
//     shrink the enabled set, so reachable decision patterns (and therefore
//     property verdicts and valence universes) are preserved.
//   kBoth — compose the two.
// Complete reduced graphs remain bit-identical across engines and thread
// counts; the cross-validation suite certifies verdict equivalence against
// the unreduced graph.
enum class Reduction {
  kNone = 0,
  kSymmetry,
  kPor,
  kBoth,
};

// Stable short name for CLI flags and run reports: "none", "symmetry",
// "por", "both".
const char* reduction_name(Reduction reduction);
// Inverse of reduction_name(); INVALID_ARGUMENT on anything else.
StatusOr<Reduction> parse_reduction(const std::string& name);

struct ExploreOptions {
  // Hard cap on distinct (config, flag) nodes; exceeding it returns
  // RESOURCE_EXHAUSTED — unless allow_truncation is set, in which case a
  // partial graph is returned with ConfigGraph::truncated() == true.
  // Truncated nodes are KEPT in the graph (so every emitted edge has a
  // valid target and every node replays from the root) but never expanded.
  std::uint64_t max_nodes = 5'000'000;
  // Opt-in partial exploration for instances beyond exhaustive reach.
  // Soundness note: on a truncated graph, property VIOLATIONS found are
  // real (every node is reachable), but their absence certifies only the
  // explored region; valence analysis is likewise a lower bound on
  // reachable decisions. Additionally, a truncated work-stealing run keeps a
  // schedule-dependent prefix: which nodes fall inside the budget depends
  // on thread interleaving, so truncated graphs are not bit-identical
  // across engines or thread counts (complete graphs always are).
  bool allow_truncation = false;
  // Worker threads for the work-stealing engine, in [0,
  // kMaxExploreThreads]; 0 = hardware_concurrency (capped at the same
  // bound). Exploration is deterministic for every thread count: the
  // work-stealing engine renumbers its result into the canonical serial BFS
  // order, so a complete graph is bit-identical to the serial engine's.
  int threads = 0;
  ExploreEngine engine = ExploreEngine::kAuto;
  // Which state-space reduction to apply (see Reduction above).
  Reduction reduction = Reduction::kNone;
  // Required when combining a flag_fn with symmetry reduction on a protocol
  // whose symmetry group is non-trivial: asserts the flag function is
  // invariant under the group (folding a renamed step yields the same flag
  // as folding the original, for every group element). explore() returns
  // INVALID_ARGUMENT if a flag_fn meets an active symmetry reduction
  // without this declaration.
  bool flag_fn_symmetric = false;

  // --- canonicalization cache (symmetry reduction only) ---
  // Per-worker byte budget for the lossy orbit cache that short-circuits
  // repeated canonical searches (sim::CanonCache; docs/checking.md, "State-
  // space reduction"). 0 disables caching. Hits are exact (full raw-key
  // verify), so the cache changes only speed, never the produced graph —
  // the engine-equivalence matrix runs with it on and off and asserts
  // bit-identical results. Activity is published as the `explore.canon.*`
  // counters.
  std::size_t canon_cache_bytes = std::size_t{4} << 20;  // 4 MiB per worker
  // Optional shared pool keeping per-worker caches warm across repeated
  // explorations (the hierarchy sweep's per-cell checks and cross-checks
  // set one per sweep). Null = a private pool per explore() call.
  // Universe-fingerprint gating (CanonCache::ensure_universe) makes sharing
  // across different protocols safe: a universe switch clears, a rerun of
  // the same universe stays warm.
  std::shared_ptr<sim::CanonCachePool> canon_cache_pool;
  // Reuse a pre-built canonicalizer instead of constructing a fresh one
  // (the hierarchy sweep re-checks the same instance under several modes,
  // and the soundness gate + group enumeration are pure functions of the
  // (protocol, spec) pair). Honored only if it was built for this exact
  // protocol instance with the protocol's declared spec; anything else
  // falls back to constructing.
  std::shared_ptr<const sim::Canonicalizer> canonicalizer;

  // --- run lifecycle (docs/checking.md, "Long runs") ---
  // Both engines poll cancel/deadline INSIDE levels, at work-chunk
  // boundaries (every kChunk expansions per worker), so a trip stops the
  // run promptly even mid-way through a wide level. Stopping still only
  // ever happens at a BFS level boundary — the one point that preserves the
  // canonical-prefix guarantee: the serial engine rolls partially-expanded
  // work back to the last completed level, and the work-stealing engine
  // trims its result back to the deepest fully-expanded level. An
  // interrupted graph is therefore bit-identical to the corresponding
  // prefix of an uninterrupted run, for every engine and thread count
  // (complete levels only). max_levels and periodic checkpoints are exact
  // level-boundary conditions for both engines.
  //
  // Cooperative cancellation. Non-owning; may be tripped from a signal
  // handler. When it fires, explore() returns an *interrupted* graph
  // (ConfigGraph::interrupted()) rather than an error: everything explored
  // is valid, and pending_frontier() says where to pick up.
  const CancelToken* cancel = nullptr;
  // Steady-clock deadline; Deadline{} (the default) means none.
  Deadline deadline = {};
  // Deterministic interruption: stop (interrupted) once this many NEW
  // levels have completed this session; 0 = unlimited. This is the testable
  // stand-in for a wall-clock deadline — same code path, no timing races.
  // Every engine and thread count stops at exactly this level with the
  // serial engine's graph.
  std::uint32_t max_levels = 0;
  // When non-empty, a resumable checkpoint is written here (atomically) at
  // every interruption, and additionally every checkpoint_every_levels
  // completed levels when that is non-zero. A failed checkpoint write fails
  // the run (a long run silently losing its safety net is the worse bug).
  // Every engine writes byte-identical checkpoint files at the same levels.
  std::string checkpoint_path;
  std::uint32_t checkpoint_every_levels = 0;
  // Label echoed into checkpoints and error messages (task name); not
  // semantically validated.
  std::string checkpoint_label;
  // Resume from a previously-written checkpoint (non-owning). The options
  // above must shape the same graph (reduction, budget, flag function,
  // initial flag — enforced via the checkpoint fingerprint, returning
  // FAILED_PRECONDITION on mismatch); engine/threads may differ freely.
  const ExploreCheckpoint* resume = nullptr;
  // The run's live Progress (non-owning; null = unobserved): engines add
  // their counts to it, a resumed run starting at the checkpoint's totals.
  obs::Progress* progress = nullptr;
};

// One directed edge of the configuration graph.
struct Edge {
  std::uint32_t to = 0;   // target node id
  std::int32_t pid = -1;  // process that stepped
  sim::Action::Kind kind = sim::Action::Kind::kInvoke;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// A node, decoded: a reachable configuration (plus the optional path flag).
// The graph does not store Nodes; ConfigGraph::nodes() builds them on
// access.
struct Node {
  sim::Config config;
  std::int64_t flag = 0;
  std::uint32_t depth = 0;  // BFS depth (shortest history length)
};

class ConfigGraph;

// ConfigGraph::nodes(): a random-access range that decodes each Node as it
// is read. Convenient for tests and one-off tools; scans that run over
// every node use words()/view() instead, which neither decode nor
// allocate.
class NodeRange {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Node;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Node;

    iterator() = default;
    iterator(const ConfigGraph* graph, std::uint32_t id)
        : graph_(graph), id_(id) {}
    Node operator*() const;
    iterator& operator++() {
      ++id_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++id_;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    const ConfigGraph* graph_ = nullptr;
    std::uint32_t id_ = 0;
  };

  explicit NodeRange(const ConfigGraph* graph) : graph_(graph) {}
  std::size_t size() const;
  bool empty() const { return size() == 0; }
  Node operator[](std::size_t id) const;
  iterator begin() const { return iterator(graph_, 0); }
  iterator end() const {
    return iterator(graph_, static_cast<std::uint32_t>(size()));
  }

 private:
  const ConfigGraph* graph_;
};

// The fully-materialized reachable graph, stored flat (docs/checking.md,
// "Graph representation"): one word store holding every node's
// Config::encode() words back to back in canonical id order, the flags,
// depths and parent pointers beside it, the edges in CSR form, and the
// discovery permutations in one byte array. No per-node object exists.
class ConfigGraph {
 public:
  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(flags_.size());
  }
  // Node id's encoded configuration (Config::encode()).
  std::span<const std::int64_t> words(std::uint32_t id) const {
    return {words_.data() + word_begin_[id],
            static_cast<std::size_t>(word_begin_[id + 1] - word_begin_[id])};
  }
  // Status/decision/pc reads off the stored words, without decoding.
  sim::ConfigView view(std::uint32_t id) const {
    return sim::ConfigView(words(id));
  }
  // Node id's configuration, decoded (allocates).
  sim::Config config(std::uint32_t id) const;
  std::int64_t flag(std::uint32_t id) const { return flags_[id]; }
  // BFS depth (shortest history length).
  std::uint32_t depth(std::uint32_t id) const { return depths_[id]; }
  // Node id's out-edges, in canonical order (pids ascending, then outcome
  // order); empty for a node that was never expanded.
  std::span<const Edge> edges(std::uint32_t id) const {
    if (id >= edge_begin_.size()) return {};
    const std::uint64_t end =
        id + 1 < edge_begin_.size() ? edge_begin_[id + 1] : edges_.size();
    return {edges_.data() + edge_begin_[id],
            static_cast<std::size_t>(end - edge_begin_[id])};
  }
  // Decoded nodes; see NodeRange.
  NodeRange nodes() const { return NodeRange(this); }

  std::uint32_t root() const { return 0; }
  std::uint64_t transition_count() const { return transition_count_; }
  // True iff exploration stopped at the node budget (allow_truncation).
  bool truncated() const { return truncated_; }
  // True iff exploration stopped early at a level boundary (cancellation,
  // deadline, or ExploreOptions::max_levels). The graph is the exact
  // canonical prefix of the complete graph: every node of depth <
  // levels_completed() is fully expanded, and pending_frontier() lists the
  // next level's nodes (present, unexpanded) in canonical id order.
  bool interrupted() const { return interrupted_; }
  // Number of fully-expanded BFS levels (== max depth + 1 when complete).
  std::uint32_t levels_completed() const { return levels_completed_; }
  // Nodes awaiting expansion; empty unless interrupted().
  const std::vector<std::uint32_t>& pending_frontier() const {
    return pending_frontier_;
  }
  // The discovering edge of node id: its source and the step taken (the
  // root's is unused).
  std::uint32_t parent(std::uint32_t id) const { return parents_[id]; }
  const sim::Step& parent_step(std::uint32_t id) const {
    return steps_[parent_steps_[id]];
  }
  // True iff symmetry reduction was active, so discovery_perm() is stored.
  bool has_discovery_perms() const { return has_perms_; }
  // The pid permutation applied when canonicalizing node id's discovering
  // successor into its stored representative (empty = identity); path_to()
  // composes these to lift representative-space steps to concrete ones.
  std::span<const std::uint8_t> discovery_perm(std::uint32_t id) const {
    return {perm_bytes_.data() + perm_begin_[id],
            static_cast<std::size_t>(perm_begin_[id + 1] - perm_begin_[id])};
  }
  // Bytes held by the graph's arrays (capacity, not just size).
  std::uint64_t memory_bytes() const;
  // The reduction mode this graph was explored under.
  Reduction reduction() const { return reduction_; }
  // The engine that actually produced this graph (never kAuto: an auto run
  // reports the engine it resolved to), so reports attribute nodes/sec to
  // the code path that did the work.
  ExploreEngine engine_used() const { return engine_used_; }
  // Non-null iff symmetry reduction was active (non-trivial group).
  const std::shared_ptr<const sim::Canonicalizer>& canonicalizer() const {
    return canonicalizer_;
  }
  // Σ orbit_size(node) over all nodes. With symmetry reduction on a
  // complete graph this is exactly the unreduced node count (each orbit
  // contributes all its members); under POR it is a lower bound, since POR
  // removes whole configurations rather than orbit mates. Without symmetry
  // it equals node_count().
  std::uint64_t full_node_estimate() const;

  // Reconstructs one shortest step sequence from the root to node id
  // (for counterexample reporting). On a symmetry-reduced graph the
  // recorded steps live in representative space; this lifts them back to a
  // concrete run of the unreduced protocol — the returned steps replay from
  // initial_config() through apply_step()/ScriptedAdversary verbatim, and
  // the lift is certified (LBSA_CHECK) to land on a renaming of node id's
  // stored configuration.
  std::vector<sim::Step> path_to(std::uint32_t id) const;

 private:
  friend class Explorer;
  friend struct internal::GraphBuilder;

  // Appends a node; `step` indexes steps_, `perm` is stored iff
  // has_perms_.
  void add_node(std::span<const std::int64_t> words, std::int64_t flag,
                std::uint32_t depth, std::uint32_t parent, std::uint32_t step,
                std::span<const std::uint8_t> perm);
  // Starts node id's edge list: nodes are expanded in ascending id order,
  // and edges are appended to the last node opened.
  void open_edges(std::uint32_t id) {
    LBSA_CHECK(edge_begin_.size() <= id);
    while (edge_begin_.size() <= id) edge_begin_.push_back(edges_.size());
  }
  // Keeps nodes [0, n) and the edges of nodes [0, first_unexpanded).
  void truncate(std::uint32_t n, std::uint32_t first_unexpanded);

  std::vector<std::int64_t> words_;
  std::vector<std::uint64_t> word_begin_{0};  // node_count() + 1 entries
  std::vector<std::int64_t> flags_;
  std::vector<std::uint32_t> depths_;
  // CSR edges: node id's edges are edges_[edge_begin_[id], next begin or
  // the end); nodes at or past edge_begin_.size() have none.
  std::vector<std::uint64_t> edge_begin_;
  std::vector<Edge> edges_;
  // Parent pointers for path reconstruction: parent id and an index into
  // steps_, the graph's distinct discovering steps.
  std::vector<std::uint32_t> parents_;
  std::vector<std::uint32_t> parent_steps_;
  std::vector<sim::Step> steps_;
  // Symmetry reduction only (has_perms_): perm_begin_ has node_count() + 1
  // entries, and just {0} otherwise.
  bool has_perms_ = false;
  std::vector<std::uint32_t> perm_begin_{0};
  std::vector<std::uint8_t> perm_bytes_;
  std::uint64_t transition_count_ = 0;
  bool truncated_ = false;
  bool interrupted_ = false;
  std::uint32_t levels_completed_ = 0;
  std::vector<std::uint32_t> pending_frontier_;
  Reduction reduction_ = Reduction::kNone;
  ExploreEngine engine_used_ = ExploreEngine::kSerial;
  std::shared_ptr<const sim::Canonicalizer> canonicalizer_;
  // Kept for path lifting and orbit sizing on reduced graphs.
  std::shared_ptr<const sim::Protocol> lift_protocol_;
};

class Explorer {
 public:
  // Folds a step into the path flag (must be monotone for the graph to be
  // meaningful: nodes reached with different flags are distinct nodes).
  // Must be a pure function of its arguments: the work-stealing engine calls
  // it concurrently from worker threads.
  using FlagFn =
      std::function<std::int64_t(std::int64_t flag, const sim::Step& step)>;

  explicit Explorer(std::shared_ptr<const sim::Protocol> protocol)
      : protocol_(std::move(protocol)) {}

  // BFS from the initial configuration. On success the graph is complete:
  // every reachable (config, flag) node and every transition is present.
  // Node ids, edge order, depths and parent pointers are canonical (serial
  // BFS discovery order) regardless of options.threads/engine, so complete
  // graphs from any configuration of the explorer compare bit-identical.
  StatusOr<ConfigGraph> explore(const ExploreOptions& options = {},
                                FlagFn flag_fn = nullptr,
                                std::int64_t initial_flag = 0) const;

  const sim::Protocol& protocol() const { return *protocol_; }

 private:
  // The serial reference engine: defines the canonical graph (ids in BFS
  // discovery order). sym is non-null iff symmetry reduction is active;
  // fingerprint stamps any checkpoint written (see checkpoint.h).
  StatusOr<ConfigGraph> explore_serial(const ExploreOptions& options,
                                       const FlagFn& flag_fn,
                                       std::int64_t initial_flag,
                                       const sim::Canonicalizer* sym,
                                       bool por,
                                       std::uint64_t fingerprint) const;
  // Work-stealing engine: per-worker deques, chunked stealing, a pending
  // counter for termination, exact pauses at level boundaries for
  // max_levels and periodic checkpoints. On cancellation the canonical
  // result is trimmed back to the deepest serial-identical prefix.
  StatusOr<ConfigGraph> explore_work_stealing(const ExploreOptions& options,
                                              int threads,
                                              const FlagFn& flag_fn,
                                              std::int64_t initial_flag,
                                              const sim::Canonicalizer* sym,
                                              bool por,
                                              std::uint64_t fingerprint) const;

  std::shared_ptr<const sim::Protocol> protocol_;
};

}  // namespace lbsa::modelcheck

#endif  // LBSA_MODELCHECK_EXPLORER_H_
