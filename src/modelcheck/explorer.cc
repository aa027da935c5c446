#include "modelcheck/explorer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "base/arena.h"
#include "base/check.h"
#include "base/hashing.h"
#include "modelcheck/batch_intern.h"
#include "modelcheck/checkpoint.h"
#include "obs/heartbeat.h"
#include "obs/obs.h"

namespace lbsa::modelcheck {
namespace {

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const {
    return static_cast<std::size_t>(hash_words(key));
  }
};

struct StepHash {
  std::size_t operator()(const sim::Step& step) const {
    const std::int64_t fields[] = {
        step.pid,
        static_cast<std::int64_t>(step.action.kind),
        step.action.object_index,
        static_cast<std::int64_t>(step.action.op.code),
        step.action.op.arg0,
        step.action.op.arg1,
        step.action.decision,
        step.response,
        step.outcome_choice};
    return static_cast<std::size_t>(hash_words(fields));
  }
};

// Deduplicating index into a step table. A graph stores each discovering
// step as an index into its table of distinct steps, and each work-stealing
// worker stores its raw edges' steps the same way: a few distinct steps
// recur across the whole graph.
class StepIndex {
 public:
  std::uint32_t intern(const sim::Step& step, std::vector<sim::Step>* table) {
    const auto [it, inserted] =
        index_.try_emplace(step, static_cast<std::uint32_t>(table->size()));
    if (inserted) table->push_back(step);
    return it->second;
  }

 private:
  std::unordered_map<sim::Step, std::uint32_t, StepHash> index_;
};

// A key's configuration words: the intern key minus its trailing flag word.
std::span<const std::int64_t> key_config(std::span<const std::int64_t> key) {
  return key.first(key.size() - 1);
}

int resolve_threads(const ExploreOptions& options) {
  if (options.threads > 0) return options.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return static_cast<int>(
      std::min<unsigned>(hw, static_cast<unsigned>(kMaxExploreThreads)));
}

// Partial-order reduction's ample-set selector: the smallest enabled
// process whose next action is a deterministic, purely-local step (decide /
// abort — touches no shared object) and, when a path flag is folded along
// edges, leaves the flag unchanged (the visibility proviso: a flag-changing
// step may not be prioritized, or flag-distinguished histories would be
// lost). Returns -1 when no such process exists and the node must be fully
// expanded. Pure function of (config, flag), so all engines agree and
// reduced graphs stay deterministic. The cycle proviso is structural: an
// ample step strictly shrinks the enabled set, so no cycle consists of
// ample-reduced nodes.
int select_ample_pid(const sim::Protocol& protocol, const sim::Config& config,
                     std::int64_t flag, const Explorer::FlagFn& flag_fn) {
  const int n = static_cast<int>(config.procs.size());
  for (int pid = 0; pid < n; ++pid) {
    if (!config.enabled(pid)) continue;
    const sim::Action action =
        protocol.next_action(pid, config.procs[static_cast<std::size_t>(pid)]);
    if (action.kind == sim::Action::Kind::kInvoke) continue;
    if (flag_fn) {
      // Probe with the exact Step enumerate_successors() would emit for
      // this local action.
      const sim::Step probe{pid, action, kNil, 0};
      if (flag_fn(flag, probe) != flag) continue;
    }
    return pid;
  }
  return -1;
}

// End-of-run level statistics, derived from the canonical graph so every
// engine reports byte-identical values: one frontier-size observation per
// BFS level, the level count, and the maximum depth.
void record_graph_metrics(const ConfigGraph& graph) {
  if (!obs::metrics_enabled()) return;
  std::vector<std::uint64_t> level_sizes;
  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    const std::uint32_t depth = graph.depth(id);
    if (depth >= level_sizes.size()) level_sizes.resize(depth + 1, 0);
    ++level_sizes[depth];
  }
  for (std::uint64_t size : level_sizes) {
    LBSA_OBS_HISTOGRAM_OBSERVE("explore.frontier_size", size);
  }
  LBSA_OBS_COUNTER_ADD("explore.levels", level_sizes.size());
  if (!level_sizes.empty()) {
    LBSA_OBS_GAUGE_MAX("explore.max_depth", level_sizes.size() - 1);
  }
}

// Live telemetry into ExploreOptions::progress (obs/heartbeat.h): each
// publisher adds the growth of its own count since its last publish, so a
// work-stealing pool's workers and runs sharing one Progress (a sweep's
// cells) compose without coordination. A count that shrank (a rolled-back
// partial level) adds nothing: cumulative counters never decrease.
void publish_delta(std::atomic<std::uint64_t>& cell, std::uint64_t now,
                   std::uint64_t* published) {
  if (now <= *published) return;
  cell.fetch_add(now - *published, std::memory_order_relaxed);
  *published = now;
}

// The gauges of where a run stands; no-op for an unobserved run.
void publish_position(obs::Progress* progress, std::uint64_t levels,
                      std::uint64_t frontier) {
  if (progress == nullptr) return;
  progress->levels_completed.store(levels, std::memory_order_relaxed);
  progress->frontier_size.store(frontier, std::memory_order_relaxed);
}

// Frontier items claimed per grab/steal in the work-stealing engine. Sized
// so a chunk's successors (a handful per item) form per-shard intern
// batches big enough to amortize the shared-lock round per shard across
// several keys. Doubles as the mid-level lifecycle polling cadence in both
// engines: every kChunk expansions each engine re-checks cancel/deadline,
// so one huge level (the dac5/dac6 tails) cannot blow past a request
// deadline by more than a bounded amount of work.
constexpr std::size_t kChunk = 64;

// Why a run stopped at a level boundary, if it should.
enum class StopReason { kNone, kCancelled, kDeadline, kMaxLevels };

StopReason stop_reason(const ExploreOptions& options,
                       std::uint32_t session_levels) {
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    return StopReason::kCancelled;
  }
  if (deadline_passed(options.deadline)) return StopReason::kDeadline;
  if (options.max_levels > 0 && session_levels >= options.max_levels) {
    return StopReason::kMaxLevels;
  }
  return StopReason::kNone;
}

// Checks that every checkpointed node's words decode to a configuration of
// `protocol`'s shape (its process and object counts), so the engines can
// intern and store the words as they are. A checksummed file makes a bad
// node near-impossible, but a hand-edited or re-stamped checkpoint must
// fail cleanly, not crash an expansion later.
Status check_checkpoint_nodes(const sim::Protocol& protocol,
                              const ExploreCheckpoint& cp) {
  const sim::Config init = sim::initial_config(protocol);
  sim::Config config;
  for (std::size_t i = 0; i < cp.node_words.size(); ++i) {
    if (Status s = sim::decode_config_into(cp.node_words[i], &config);
        !s.is_ok()) {
      return s;
    }
    if (config.procs.size() != init.procs.size() ||
        config.objects.size() != init.objects.size()) {
      return invalid_argument(
          "resume: checkpoint node " + std::to_string(i) + " has " +
          std::to_string(config.procs.size()) + " processes and " +
          std::to_string(config.objects.size()) +
          " objects; the protocol has " + std::to_string(init.procs.size()) +
          " and " +
          std::to_string(init.objects.size()));
    }
  }
  return Status::ok();
}

// Writes a paused exploration (graph at a level boundary + the pending
// frontier) to options.checkpoint_path.
Status write_checkpoint(const ConfigGraph& graph,
                        std::span<const std::uint32_t> frontier,
                        std::uint32_t levels_completed,
                        std::uint64_t fingerprint,
                        const ExploreOptions& options, bool has_flag_fn,
                        std::int64_t initial_flag) {
  LBSA_OBS_COUNTER_ADD_V("explore.checkpoint.writes", 1);
  if (options.progress != nullptr) {
    options.progress->checkpoint_writes.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  ExploreCheckpoint cp;
  cp.fingerprint = fingerprint;
  cp.task_label = options.checkpoint_label;
  cp.reduction = options.reduction;
  cp.initial_flag = initial_flag;
  cp.has_flag_fn = has_flag_fn;
  cp.max_nodes = options.max_nodes;
  cp.allow_truncation = options.allow_truncation;
  cp.truncated = graph.truncated();
  cp.transition_count = graph.transition_count();
  cp.levels_completed = levels_completed;
  const std::uint32_t n = graph.node_count();
  cp.node_words.reserve(n);
  cp.node_flags.reserve(n);
  cp.node_depths.reserve(n);
  cp.parents.reserve(n);
  cp.parent_steps.reserve(n);
  cp.edges.reserve(n);
  if (graph.has_discovery_perms()) cp.discovery_perms.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto words = graph.words(i);
    cp.node_words.emplace_back(words.begin(), words.end());
    cp.node_flags.push_back(graph.flag(i));
    cp.node_depths.push_back(graph.depth(i));
    cp.parents.push_back(graph.parent(i));
    cp.parent_steps.push_back(graph.parent_step(i));
    if (graph.has_discovery_perms()) {
      const auto perm = graph.discovery_perm(i);
      cp.discovery_perms.emplace_back(perm.begin(), perm.end());
    }
    const auto edges = graph.edges(i);
    cp.edges.emplace_back(edges.begin(), edges.end());
  }
  cp.frontier.assign(frontier.begin(), frontier.end());
  return write_explore_checkpoint(cp, options.checkpoint_path);
}

// Attaches the run's per-worker orbit cache (if any) to `scratch`. The pool
// hands out one single-threaded cache per worker index; caches are keyed by
// the canonicalizer's universe salt, so a pool shared across hierarchy-sweep
// cells self-invalidates when the protocol changes.
void attach_canon_cache(const ExploreOptions& options,
                        const sim::Canonicalizer* sym, std::size_t worker,
                        sim::CanonScratch* scratch) {
  if (sym == nullptr || options.canon_cache_pool == nullptr) return;
  scratch->attach_cache(
      options.canon_cache_pool->worker_cache(worker, sym->universe_salt()));
}

// Publishes the explore.canon.* counters as deltas since the last call (so
// engines can drain at any quiescence cadence), then advances `seen`.
// Volatile: hit/prune tallies depend on expansion interleaving and on cache
// contents carried over from earlier runs sharing the pool.
struct CanonSeen {
  std::uint64_t hits = 0, misses = 0, prunes = 0, fast = 0;
};
void add_canon_metrics(const sim::CanonScratch& s, CanonSeen* seen) {
  if (!obs::metrics_enabled()) return;
  LBSA_OBS_COUNTER_ADD_V("explore.canon.cache_hits",
                         s.cache_hits - seen->hits);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.cache_misses",
                         s.cache_misses - seen->misses);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.prunes", s.prunes - seen->prunes);
  LBSA_OBS_COUNTER_ADD_V("explore.canon.fast_path",
                         s.fast_path - seen->fast);
  *seen = CanonSeen{s.cache_hits, s.cache_misses, s.prunes, s.fast_path};
}

// ---------------------------------------------------------------------------
// Serial reference engine. This is the semantic definition of the canonical
// graph: node ids in BFS discovery order (frontier in id order; within a
// node, pids ascending, then outcome order), parents_ from the discovering
// edge, depths from BFS discovery. The work-stealing engine
// below must reproduce its output bit for bit on complete explorations.
// ---------------------------------------------------------------------------
}  // namespace

StatusOr<ConfigGraph> Explorer::explore_serial(
    const ExploreOptions& options, const FlagFn& flag_fn,
    std::int64_t initial_flag, const sim::Canonicalizer* sym, bool por,
    std::uint64_t fingerprint) const {
  const sim::Protocol& protocol = *protocol_;
  ConfigGraph graph;
  graph.has_perms_ = sym != nullptr;
  std::unordered_map<std::vector<std::int64_t>, std::uint32_t, KeyHash> index;
  StepIndex step_index;

  // Reused scratch: the encoded key only lands in the map on insertion.
  // Under symmetry reduction the key is the representative's encoding, so
  // the graph stores it as is.
  std::vector<std::int64_t> key;
  std::vector<std::uint8_t> perm;
  sim::CanonScratch canon_scratch;
  attach_canon_cache(options, sym, /*worker=*/0, &canon_scratch);
  CanonSeen canon_seen;
  auto intern = [&](const sim::Config& config, std::int64_t flag,
                    std::uint32_t parent, const sim::Step& step,
                    std::uint32_t depth) -> std::pair<std::uint32_t, bool> {
    if (sym != nullptr) {
      sym->canonical_encode_into(config, &key, &perm, &canon_scratch);
      if (!perm.empty()) LBSA_OBS_COUNTER_ADD("explore.sym.renamed", 1);
    } else {
      config.encode_into(&key);
    }
    key.push_back(flag);
    auto [it, inserted] = index.try_emplace(key, graph.node_count());
    if (inserted) {
      LBSA_OBS_COUNTER_ADD("explore.nodes", 1);
      graph.add_node(key_config(key), flag, depth, parent,
                     step_index.intern(step, &graph.steps_), perm);
    }
    return {it->second, inserted};
  };

  std::deque<std::uint32_t> frontier;
  std::uint32_t start_depth = 0;
  if (options.resume != nullptr) {
    // Seed the canonical prefix directly (NOT through intern(): resumed
    // nodes must not re-bump explore.nodes — the counters describe work done
    // this session). The checkpoint stores representatives' words, which
    // are the intern keys even under symmetry reduction.
    const ExploreCheckpoint& cp = *options.resume;
    const std::size_t n = cp.node_words.size();
    std::vector<std::int64_t> seed_key;
    for (std::size_t i = 0; i < n; ++i) {
      seed_key.assign(cp.node_words[i].begin(), cp.node_words[i].end());
      seed_key.push_back(cp.node_flags[i]);
      const bool fresh =
          index.try_emplace(seed_key, static_cast<std::uint32_t>(i)).second;
      if (!fresh) return invalid_argument("resume: duplicate checkpoint node");
      graph.add_node(cp.node_words[i], cp.node_flags[i], cp.node_depths[i],
                     cp.parents[i],
                     step_index.intern(cp.parent_steps[i], &graph.steps_),
                     sym != nullptr ? std::span<const std::uint8_t>(
                                          cp.discovery_perms[i])
                                    : std::span<const std::uint8_t>());
      // Only nodes before the frontier have edges (explore() checks it).
      if (!cp.edges[i].empty()) {
        graph.open_edges(static_cast<std::uint32_t>(i));
        graph.edges_.insert(graph.edges_.end(), cp.edges[i].begin(),
                            cp.edges[i].end());
      }
    }
    graph.transition_count_ = cp.transition_count;
    graph.truncated_ = cp.truncated;
    frontier.assign(cp.frontier.begin(), cp.frontier.end());
    start_depth = cp.levels_completed;
  } else {
    intern(sim::initial_config(protocol), initial_flag, 0, sim::Step{}, 0);
    frontier.push_back(0);
  }

  obs::Progress* const progress = options.progress;
  if (progress != nullptr) progress->configure_workers(0);
  // What this engine has added to `progress` (explore() added the resumed
  // prefix).
  std::uint64_t published_nodes =
      options.resume != nullptr ? options.resume->node_words.size() : 0;
  std::uint64_t published_transitions =
      options.resume != nullptr ? options.resume->transition_count : 0;
  auto publish = [&](std::uint64_t levels, std::uint64_t frontier_size) {
    if (progress == nullptr) return;
    publish_delta(progress->nodes_total, graph.node_count(),
                  &published_nodes);
    publish_delta(progress->transitions_total, graph.transition_count_,
                  &published_transitions);
    publish_position(progress, levels, frontier_size);
  };
  std::uint64_t pops = 0;

  // One "explore.level" phase event per BFS level. The frontier is a FIFO,
  // so popped depths are non-decreasing and a depth change marks a level
  // boundary.
  bool level_open = false;
  std::uint64_t level_start_us = 0;
  std::uint32_t span_depth = 0;
  std::uint64_t span_nodes = 0;
  auto close_level_span = [&] {
    if (!level_open) return;
    level_open = false;
    obs::TraceEvent event;
    event.name = "explore.level";
    event.cat = obs::kCatPhase;
    event.lane = 0;
    event.ts_us = level_start_us;
    const std::uint64_t now = obs::trace_now_us();
    event.dur_us = now >= level_start_us ? now - level_start_us : 0;
    event.args.emplace_back("level", span_depth);
    event.args.emplace_back("nodes", static_cast<std::int64_t>(span_nodes));
    obs::Tracer::global().record(std::move(event));
  };
  auto open_level_span = [&](std::uint32_t d) {
    span_depth = d;
    span_nodes = 0;
    if (!obs::tracing_enabled()) return;
    level_open = true;
    level_start_us = obs::trace_now_us();
  };
  open_level_span(start_depth);

  // Mid-level lifecycle polling: when a cancel token or deadline is armed,
  // the pop loop below re-checks it every kChunk pops and, on a trip, rolls
  // the graph back to the last level-boundary snapshot — so the interrupted
  // result is still an exact level prefix (the only state a checkpoint can
  // represent) but one huge level can no longer blow past a deadline.
  // The snapshot is the frontier ids plus three scalars, refreshed once per
  // level, and taken only while armed.
  const bool lifecycle_armed =
      options.cancel != nullptr || options.deadline != Deadline{};
  struct LevelSnapshot {
    std::vector<std::uint32_t> frontier;
    std::uint32_t nodes = 0;
    std::uint64_t transitions = 0;
    bool truncated = false;
    std::uint32_t depth = 0;
  };
  LevelSnapshot snap;
  auto take_snapshot = [&](std::uint32_t d) {
    if (!lifecycle_armed) return;
    snap.frontier.assign(frontier.begin(), frontier.end());
    snap.nodes = graph.node_count();
    snap.transitions = graph.transition_count_;
    snap.truncated = graph.truncated_;
    snap.depth = d;
  };
  take_snapshot(start_depth);

  std::vector<sim::Successor> successors;
  sim::Config config;  // the node being expanded, decoded from its words
  while (!frontier.empty()) {
    const std::uint32_t id = frontier.front();
    const std::uint32_t depth = graph.depths_[id];

    if (depth != span_depth) {
      close_level_span();
      // Level boundary: every node of depth < `depth` is expanded, and the
      // deque holds exactly the depth-`depth` nodes in ascending id order —
      // the one state a checkpoint can represent and a resume can
      // reproduce. All lifecycle actions happen here and only here.
      publish(depth, frontier.size());
      if (sym != nullptr) add_canon_metrics(canon_scratch, &canon_seen);
      const std::uint32_t session_levels = depth - start_depth;
      if (stop_reason(options, session_levels) != StopReason::kNone) {
        graph.interrupted_ = true;
        graph.levels_completed_ = depth;
        graph.pending_frontier_.assign(frontier.begin(), frontier.end());
        if (!options.checkpoint_path.empty()) {
          const Status written = write_checkpoint(
              graph, graph.pending_frontier_, depth, fingerprint, options,
              flag_fn != nullptr, initial_flag);
          if (!written.is_ok()) return written;
        }
        break;
      }
      if (!options.checkpoint_path.empty() &&
          options.checkpoint_every_levels > 0 && session_levels > 0 &&
          session_levels % options.checkpoint_every_levels == 0) {
        const std::vector<std::uint32_t> pending(frontier.begin(),
                                                 frontier.end());
        const Status written =
            write_checkpoint(graph, pending, depth, fingerprint, options,
                             flag_fn != nullptr, initial_flag);
        if (!written.is_ok()) return written;
      }
      open_level_span(depth);
      take_snapshot(depth);
    }
    frontier.pop_front();
    ++pops;
    // Mid-level cadence so heartbeats move inside long levels; every 512
    // pops keeps the null-pointer branch the only cost when unobserved and
    // bounds the publication lag behind actual interning to well under the
    // work-stealing engine's per-worker chunk cadence times its pool width.
    if (progress != nullptr && (pops & 0x1FFu) == 0) {
      publish(span_depth, frontier.size());
    }
    // Mid-level lifecycle poll, every kChunk pops (matching the
    // work-stealing engine's work-chunk cadence). max_levels stays
    // level-granular; only cancel/deadline — the request-lifecycle knobs —
    // trip mid-level.
    if (lifecycle_armed && (pops & (kChunk - 1)) == 0 &&
        ((options.cancel != nullptr && options.cancel->cancelled()) ||
         deadline_passed(options.deadline))) {
      // Roll back to the level-start snapshot: drop every node discovered
      // during this partial level and the edges its expansions emitted
      // (this level's expansions began at its first frontier node), so the
      // result is the same graph a boundary-time stop would produce.
      graph.truncate(snap.nodes, snap.frontier.front());
      graph.transition_count_ = snap.transitions;
      graph.truncated_ = snap.truncated;
      graph.interrupted_ = true;
      graph.levels_completed_ = snap.depth;
      graph.pending_frontier_ = std::move(snap.frontier);
      if (!options.checkpoint_path.empty()) {
        const Status written = write_checkpoint(
            graph, graph.pending_frontier_, snap.depth, fingerprint, options,
            flag_fn != nullptr, initial_flag);
        if (!written.is_ok()) return written;
      }
      break;
    }
    // Decode before interning: intern() may reallocate the word store.
    LBSA_CHECK(sim::decode_config_into(graph.words(id), &config).is_ok());
    const std::int64_t flag = graph.flags_[id];
    ++span_nodes;
    graph.open_edges(id);

    const int ample =
        por ? select_ample_pid(protocol, config, flag, flag_fn) : -1;
    if (ample >= 0) {
      LBSA_OBS_COUNTER_ADD("explore.por.skips", config.enabled_count() - 1);
    }
    const int n = static_cast<int>(config.procs.size());
    for (int pid = 0; pid < n; ++pid) {
      if (!config.enabled(pid)) continue;
      if (ample >= 0 && pid != ample) continue;
      successors.clear();
      sim::enumerate_successors(protocol, config, pid, &successors);
      for (sim::Successor& succ : successors) {
        const std::int64_t next_flag =
            flag_fn ? flag_fn(flag, succ.step) : flag;
        auto [to, inserted] =
            intern(succ.config, next_flag, id, succ.step, depth + 1);
        graph.edges_.push_back(Edge{to, pid, succ.step.action.kind});
        ++graph.transition_count_;
        LBSA_OBS_COUNTER_ADD("explore.transitions", 1);
        if (inserted) {
          if (graph.node_count() > options.max_nodes) {
            if (!options.allow_truncation) {
              return resource_exhausted(
                  "explore: node budget exceeded (" +
                  std::to_string(options.max_nodes) + ")");
            }
            // Truncation invariant: the over-budget node was already added
            // to the graph by intern(), so the edge we just
            // emitted has a valid target and path_to(to) replays — the node
            // is KEPT but (by skipping the frontier push) never expanded.
            graph.truncated_ = true;
            continue;
          }
          frontier.push_back(to);
        }
      }
    }
  }
  close_level_span();
  if (!graph.interrupted_) {
    graph.levels_completed_ =
        graph.depths_.empty() ? 0 : graph.depths_.back() + 1;
  }
  publish(graph.levels_completed_, graph.pending_frontier_.size());
  if (sym != nullptr) add_canon_metrics(canon_scratch, &canon_seen);
  record_graph_metrics(graph);
  return graph;
}

// ---------------------------------------------------------------------------
// Work-stealing engine: expansion + canonical renumbering machinery.
//
// Determinism recipe (complete graphs are bit-identical to explore_serial):
//   1. Each frontier node is expanded by exactly one worker, which emits its
//      raw edge list in the canonical within-node order (pids ascending,
//      outcomes in enumeration order). Provisional ids from the concurrent
//      intern table are schedule-dependent, but the edge *lists* are not.
//   2. A final single-threaded renumbering pass replays the canonical BFS
//      over the provisional graph: walking nodes in canonical id order and
//      each edge list in order, first-touch assigns canonical ids — which
//      reproduces the serial discovery order, parents and all.
//   3. There are no level barriers: a stored depth is the length of the
//      path a node was first discovered along, an upper bound on its BFS
//      depth. The walk derives exact depths from the canonical parents.
//      Level boundaries that must be exact (max_levels, periodic
//      checkpoints) are reached by pausing: see explore_work_stealing.
//      Cancellation is handled by trimming the walked graph back to the
//      deepest fully expanded level (the ids the walk assigns are
//      depth-monotone, so the serial-identical prefix is literally an array
//      prefix).
//
// The hot path is allocation-free after warm-up: successor keys are encoded
// straight into a per-worker bump arena (Config::encode_to), interned in
// per-shard batches under one shared-lock acquisition each (BatchInternTable),
// and raw edges land in flat per-worker pools. Each node's configuration is
// stored once, as its key words in the winning inserter's arena; a worker
// decodes the key into a reused Config when it expands the node, and the
// canonical pass copies the words into the graph's word store. Frontier
// items carry only the node id.
// ---------------------------------------------------------------------------

namespace {

// Payload stored per interned (config, flag) node.
struct NodeMeta {
  std::int64_t flag = 0;
  // Expansion eligibility, read back by the work-stealing trim pass.
  enum State : std::uint8_t {
    kFresh = 0,     // discovered within budget; expandable
    kSeedDone,      // checkpoint-prefix node that is not in the resumed
                    // frontier: already expanded (or budget-barred) in a
                    // previous session
    kBeyondBudget,  // kept under allow_truncation but never expanded
  };
  std::uint8_t state = kFresh;
};

using BatchTable = BatchInternTable<NodeMeta>;

// An emitted transition, pre-renumbering: target is a provisional id, and
// the step (which the renumbering pass needs for parent steps and edge
// labels) is an index into the owning worker's step table.
struct RawEdge {
  std::uint32_t to = 0;
  std::uint32_t step = 0;
};

// One expanded node's slice [begin, end) of the owning worker's RawEdge
// pool, plus its per-expansion reduction tallies (folded into the stable
// counters only for nodes the final graph keeps expanded).
struct EdgeRange {
  std::uint32_t id = 0;  // provisional id of the expanded node
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t renamed = 0;    // non-identity canonicalizations
  std::uint32_t por_skips = 0;  // enabled-but-skipped processes
  std::uint8_t had_ample = 0;   // an ample process existed (skips may be 0)
};

// Per-worker edge storage: a flat pool plus one range per expanded node.
struct EdgeSink {
  std::vector<RawEdge> pool;
  // The distinct steps of this worker's edges (RawEdge::step).
  std::vector<sim::Step> steps;
  StepIndex step_index;
  // Under symmetry reduction only, parallel to `pool`: edge e's successor
  // was canonicalized by perm_bytes[perm_begin[e], perm_begin[e + 1])
  // (empty = identity). The renumbering pass installs the first-touch
  // edge's perm as the node's discovery perm, which keeps the discovery
  // perms aligned with the canonical parents no matter which worker
  // interned the node first.
  std::vector<std::uint32_t> perm_begin{0};
  std::vector<std::uint8_t> perm_bytes;
  std::vector<EdgeRange> ranges;

  std::span<const std::uint8_t> perm(std::uint32_t e) const {
    return {perm_bytes.data() + perm_begin[e],
            perm_begin[e + 1] - perm_begin[e]};
  }
};

// A frontier entry: just the published node's id plus the two payload
// fields the expander needs before touching the table. The configuration
// itself is the node's table key.
struct WorkItem {
  std::uint32_t id = 0;  // provisional id
  std::uint32_t depth = 0;
  std::int64_t flag = 0;
};

constexpr std::uint32_t kUnassigned = 0xffffffffu;

// Per-worker expansion machinery of the work-stealing engine: expands
// frontier items in chunks, encodes successor keys straight into a scratch
// arena, batch-interns them shard by shard, and appends raw edges to the
// worker's EdgeSink. Single-threaded; one instance per worker.
class Expander {
 public:
  Expander(const sim::Protocol* protocol, BatchTable* table,
           const Explorer::FlagFn* flag_fn, const sim::Canonicalizer* sym,
           bool por, std::uint64_t max_nodes, bool allow_truncation,
           std::atomic<bool>* truncated)
      : protocol_(protocol),
        table_(table),
        flag_fn_(flag_fn),
        sym_(sym),
        por_(por),
        max_nodes_(max_nodes),
        allow_truncation_(allow_truncation),
        truncated_(truncated) {}

  // Expands every item of `chunk`, appending one EdgeRange per item to
  // `sink` and passing each newly-discovered within-budget successor to
  // `emit` as a WorkItem. Returns false iff the node budget was exceeded
  // with truncation disallowed (the caller must stop and report
  // RESOURCE_EXHAUSTED).
  template <typename Emit>
  bool expand_chunk(std::span<WorkItem> chunk, EdgeSink* sink, Emit&& emit) {
    scratch_.reset();
    pending_.clear();
    items_.clear();
    for (const WorkItem& item : chunk) {
      // The item arrived over a queue after its inserter published the
      // node, so this pre-quiescence key read is ordered after the key was
      // written (and keys never relocate).
      LBSA_CHECK(
          sim::decode_config_into(key_config(table_->key(item.id)), &config_)
              .is_ok());
      const sim::Config& config = config_;
      ItemRec rec;
      rec.id = item.id;
      rec.begin = static_cast<std::uint32_t>(pending_.size());
      const int ample =
          por_ ? select_ample_pid(*protocol_, config, item.flag, *flag_fn_)
               : -1;
      if (ample >= 0) {
        rec.had_ample = 1;
        rec.skips = static_cast<std::uint32_t>(config.enabled_count() - 1);
      }
      const int n = static_cast<int>(config.procs.size());
      for (int pid = 0; pid < n; ++pid) {
        if (!config.enabled(pid)) continue;
        if (ample >= 0 && pid != ample) continue;
        successors_.clear();
        sim::enumerate_successors(*protocol_, config, pid, &successors_);
        for (sim::Successor& succ : successors_) {
          const std::int64_t next_flag =
              *flag_fn_ ? (*flag_fn_)(item.flag, succ.step) : item.flag;
          Pending p;
          if (sym_ != nullptr) {
            // The key is the representative's encoding, so the node is
            // later expanded from the representative, never the raw
            // successor.
            sym_->canonical_encode_into(succ.config, &sym_key_, &perm_,
                                        &canon_scratch_);
            if (!perm_.empty()) ++rec.renamed;
            const std::size_t len = sym_key_.size() + 1;
            std::int64_t* words = scratch_.alloc(len);
            std::copy(sym_key_.begin(), sym_key_.end(), words);
            words[len - 1] = next_flag;
            p.cand.key = {words, len};
            p.perm = perm_;
          } else {
            const std::size_t len = succ.config.encoded_size() + 1;
            std::int64_t* words = scratch_.alloc(len);
            succ.config.encode_to(words);
            words[len - 1] = next_flag;
            p.cand.key = {words, len};
          }
          p.cand.hash = hash_words_128(p.cand.key);
          p.cand.payload = NodeMeta{next_flag, NodeMeta::kFresh};
          p.flag = next_flag;
          p.depth = item.depth + 1;
          p.step = succ.step;
          pending_.push_back(std::move(p));
        }
      }
      rec.end = static_cast<std::uint32_t>(pending_.size());
      items_.push_back(rec);
    }

    // One probe pass per shard for the whole chunk: bucket, then batch.
    for (auto& bucket : buckets_) bucket.clear();
    for (Pending& p : pending_) {
      buckets_[BatchTable::shard_of(p.cand.hash)].push_back(&p.cand);
    }
    for (std::uint32_t s = 0; s < BatchTable::kShardCount; ++s) {
      if (buckets_[s].empty()) continue;
      table_->intern_batch(s, buckets_[s], &key_arena_, &tally_);
      LBSA_OBS_HISTOGRAM_OBSERVE_V("explore.intern.batch_size",
                                   buckets_[s].size());
    }

    // Resolve: raw edges in canonical within-node order; fresh discoveries
    // are queued (or budget-barred) exactly once, by their inserter.
    bool ok = true;
    for (const ItemRec& rec : items_) {
      EdgeRange range;
      range.id = rec.id;
      range.renamed = rec.renamed;
      range.por_skips = rec.skips;
      range.had_ample = rec.had_ample;
      range.begin = static_cast<std::uint32_t>(sink->pool.size());
      for (std::uint32_t i = rec.begin; i < rec.end; ++i) {
        Pending& p = pending_[i];
        sink->pool.push_back(
            RawEdge{p.cand.id, sink->step_index.intern(p.step, &sink->steps)});
        if (sym_ != nullptr) {
          sink->perm_bytes.insert(sink->perm_bytes.end(), p.perm.begin(),
                                  p.perm.end());
          sink->perm_begin.push_back(
              static_cast<std::uint32_t>(sink->perm_bytes.size()));
        }
        if (!p.cand.inserted) continue;
        // seq reproduces the serial budget cut: the first max_nodes
        // insertions (in global insertion order) are expandable.
        if (p.cand.seq > max_nodes_) {
          if (!allow_truncation_) {
            ok = false;
            continue;
          }
          table_->payload_mut(p.cand.id).state = NodeMeta::kBeyondBudget;
          truncated_->store(true, std::memory_order_relaxed);
          continue;
        }
        emit(WorkItem{p.cand.id, p.depth, p.flag});
      }
      range.end = static_cast<std::uint32_t>(sink->pool.size());
      sink->ranges.push_back(range);
    }
    return ok;
  }

  const BatchTable::Tally& tally() const { return tally_; }
  // Words in this worker's interned keys (flag words included).
  std::uint64_t key_words() const { return key_arena_.allocated_words(); }

  // The worker's canonicalization scratch (cache attachment + tallies).
  // Exposed so the engine can attach a per-worker cache after construction
  // and drain the tallies into counters at its quiescence points.
  sim::CanonScratch* canon_scratch() { return &canon_scratch_; }
  const sim::CanonScratch& canon_scratch() const { return canon_scratch_; }

 private:
  struct Pending {
    BatchTable::Candidate cand;
    sim::Step step;
    std::vector<std::uint8_t> perm;
    std::int64_t flag = 0;
    std::uint32_t depth = 0;
  };
  struct ItemRec {
    std::uint32_t id = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t renamed = 0;
    std::uint32_t skips = 0;
    std::uint8_t had_ample = 0;
  };

  const sim::Protocol* protocol_;
  BatchTable* table_;
  const Explorer::FlagFn* flag_fn_;
  const sim::Canonicalizer* sym_;
  bool por_;
  std::uint64_t max_nodes_;
  bool allow_truncation_;
  std::atomic<bool>* truncated_;
  // Receives the interned key words of this worker's winning inserts; must
  // outlive every read of the table, so it lives with the worker, not the
  // chunk.
  WordArena key_arena_{1u << 15};
  // Per-chunk scratch for candidate keys; reset at every chunk.
  WordArena scratch_{1u << 14};
  BatchTable::Tally tally_;
  sim::CanonScratch canon_scratch_;
  sim::Config config_;  // the item being expanded, decoded from its key
  std::vector<sim::Successor> successors_;
  std::vector<std::int64_t> sym_key_;
  std::vector<std::uint8_t> perm_;
  std::vector<Pending> pending_;
  std::vector<ItemRec> items_;
  std::array<std::vector<BatchTable::Candidate*>, BatchTable::kShardCount>
      buckets_;
};

// One worker's whole state. It outlives the worker's threads: a run with
// level pauses starts one thread per worker per round.
struct ParallelWorker {
  explicit ParallelWorker(Expander expander) : ex(std::move(expander)) {}
  Expander ex;
  EdgeSink sink;
  // Discoveries at or past the pause level, held back until the pause.
  std::vector<WorkItem> parked;
  std::uint64_t expanded = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_misses = 0;  // full sweeps that found nothing
  // What this worker already published (Progress, canon counters).
  std::uint64_t seen_cas_retries = 0;
  std::uint64_t seen_inserts = 0;
  std::uint64_t seen_edges = 0;
  CanonSeen canon_seen;
};

// The table contents after seeding (root or checkpoint prefix), before any
// worker runs.
struct SeedState {
  std::vector<WorkItem> frontier;
  // Resume only: prefix_prov[i] is the provisional id of canonical
  // checkpoint node i; the renumbering walk is seeded with this prefix.
  std::vector<std::uint32_t> prefix_prov;
  std::vector<std::uint8_t> root_perm;  // fresh runs: root's canonical perm
  std::uint32_t root_id = 0;
  std::uint32_t start_depth = 0;
  std::uint64_t base_transitions = 0;
  bool truncated = false;
};

StatusOr<SeedState> seed_table(const sim::Protocol& protocol,
                               BatchTable* table, WordArena* seed_arena,
                               BatchTable::Tally* tally,
                               const ExploreCheckpoint* resume,
                               const sim::Canonicalizer* sym,
                               std::int64_t initial_flag) {
  SeedState seed;
  std::vector<std::int64_t> key;
  if (resume != nullptr) {
    const std::size_t n = resume->node_words.size();
    std::vector<std::uint8_t> in_frontier(n, 0);
    for (std::uint32_t id : resume->frontier) in_frontier[id] = 1;
    seed.prefix_prov.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      key.assign(resume->node_words[i].begin(), resume->node_words[i].end());
      key.push_back(resume->node_flags[i]);
      NodeMeta meta;
      meta.flag = resume->node_flags[i];
      meta.state = in_frontier[i] ? NodeMeta::kFresh : NodeMeta::kSeedDone;
      const auto res = table->intern(key, meta, seed_arena, tally);
      if (!res.inserted) {
        return invalid_argument("resume: duplicate checkpoint node");
      }
      seed.prefix_prov.push_back(res.id);
    }
    seed.frontier.reserve(resume->frontier.size());
    for (std::uint32_t id : resume->frontier) {
      seed.frontier.push_back(WorkItem{seed.prefix_prov[id],
                                       resume->node_depths[id],
                                       resume->node_flags[id]});
    }
    seed.start_depth = resume->levels_completed;
    seed.base_transitions = resume->transition_count;
    seed.truncated = resume->truncated;
  } else {
    sim::Config init = sim::initial_config(protocol);
    if (sym != nullptr) sym->canonicalize(&init, &seed.root_perm);
    init.encode_into(&key);
    key.push_back(initial_flag);
    const auto res = table->intern(
        key, NodeMeta{initial_flag, NodeMeta::kFresh}, seed_arena, tally);
    seed.root_id = res.id;
    seed.frontier.push_back(WorkItem{res.id, 0, initial_flag});
  }
  return seed;
}

// The canonical graph plus the id maps the engine needs afterwards (trim
// pass, stable-counter flush). Valid only at quiescence.
struct CanonicalBuild {
  ConfigGraph graph;
  std::vector<std::uint32_t> canon;  // provisional -> canonical id
  std::vector<std::uint32_t> order;  // canonical -> provisional id
};

}  // namespace

namespace internal {

struct GraphBuilder {
  // This session's expansions, indexed by provisional id (null range = not
  // expanded this session).
  struct RawRef {
    const EdgeSink* sink = nullptr;
    const EdgeRange* range = nullptr;
    std::size_t worker = 0;
  };
  static std::vector<RawRef> index_expansions(
      const BatchTable& table, const std::vector<ParallelWorker>& workers) {
    std::vector<RawRef> raw(table.id_bound());
    for (std::size_t w = 0; w < workers.size(); ++w) {
      for (const EdgeRange& r : workers[w].sink.ranges) {
        raw[r.id] = RawRef{&workers[w].sink, &r, w};
      }
    }
    return raw;
  }

  // The BFS depth of every interned node, by provisional id: the walk
  // build() does, without materializing a graph. Runnable whenever workers
  // are quiescent.
  static std::vector<std::uint32_t> canonical_depths(
      const BatchTable& table, const std::vector<ParallelWorker>& workers,
      const SeedState& seed, const ExploreCheckpoint* resume) {
    const std::vector<RawRef> raw = index_expansions(table, workers);
    std::vector<std::uint32_t> depth(table.id_bound(), kUnassigned);
    std::vector<std::uint32_t> order;  // BFS queue (provisional ids)
    order.reserve(static_cast<std::size_t>(table.size()));
    if (resume != nullptr) {
      for (std::size_t i = 0; i < seed.prefix_prov.size(); ++i) {
        depth[seed.prefix_prov[i]] = resume->node_depths[i];
        order.push_back(seed.prefix_prov[i]);
      }
    } else {
      depth[seed.root_id] = 0;
      order.push_back(seed.root_id);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const RawRef ref = raw[order[i]];
      if (ref.range == nullptr) continue;
      for (std::uint32_t e = ref.range->begin; e < ref.range->end; ++e) {
        const std::uint32_t to = ref.sink->pool[e].to;
        if (depth[to] != kUnassigned) continue;
        depth[to] = depth[order[i]] + 1;
        order.push_back(to);
      }
    }
    return depth;
  }

  // Canonical renumbering walk, runnable whenever workers are quiescent
  // (a mid-run checkpoint snapshot builds while workers are paused). It
  // emits the graph's flat arrays directly: each node's words are copied
  // from its table key into the word store, reserved up front from
  // total_words. Stored depths are only upper bounds (a steal can discover
  // a node along a non-shortest path first), so the walk derives depths
  // from the canonical parents.
  static CanonicalBuild build(const BatchTable& table,
                              const std::vector<ParallelWorker>& workers,
                              const SeedState& seed,
                              const ExploreCheckpoint* resume, bool sym_active,
                              bool truncated_flag, std::uint64_t total_words) {
    const std::vector<RawRef> raw = index_expansions(table, workers);
    std::uint64_t session_edges = 0;  // every pooled edge is in a range
    for (const ParallelWorker& w : workers) session_edges += w.sink.pool.size();

    CanonicalBuild out;
    ConfigGraph& graph = out.graph;
    graph.has_perms_ = sym_active;
    graph.truncated_ = truncated_flag;
    graph.transition_count_ = seed.base_transitions + session_edges;
    const std::size_t total = static_cast<std::size_t>(table.size());
    graph.words_.reserve(total_words);
    graph.word_begin_.reserve(total + 1);
    graph.flags_.reserve(total);
    graph.depths_.reserve(total);
    graph.parents_.reserve(total);
    graph.parent_steps_.reserve(total);
    graph.edge_begin_.reserve(total);
    graph.edges_.reserve(graph.transition_count_);
    if (sym_active) graph.perm_begin_.reserve(total + 1);
    out.canon.assign(table.id_bound(), kUnassigned);
    std::vector<std::uint32_t>& order = out.order;  // canonical BFS queue
    order.reserve(total);

    // Each worker's step table, re-indexed into the graph's.
    StepIndex step_index;
    std::vector<std::vector<std::uint32_t>> step_map(workers.size());
    for (std::size_t w = 0; w < workers.size(); ++w) {
      for (const sim::Step& step : workers[w].sink.steps) {
        step_map[w].push_back(step_index.intern(step, &graph.steps_));
      }
    }
    auto add = [&](std::uint32_t prov, std::int64_t flag, std::uint32_t depth,
                   std::uint32_t parent, std::uint32_t step,
                   std::span<const std::uint8_t> perm) {
      out.canon[prov] = graph.node_count();
      order.push_back(prov);
      graph.add_node(key_config(table.key(prov)), flag, depth, parent, step,
                     perm);
    };

    if (resume != nullptr) {
      // The checkpointed prefix IS the canonical prefix: re-seat it
      // verbatim, then let first-touch discovery number this session's
      // nodes — it continues the serial numbering exactly (frontier nodes
      // sit in the prefix; their session edges are walked in canonical
      // order below).
      for (std::size_t i = 0; i < seed.prefix_prov.size(); ++i) {
        add(seed.prefix_prov[i], resume->node_flags[i], resume->node_depths[i],
            resume->parents[i],
            step_index.intern(resume->parent_steps[i], &graph.steps_),
            sym_active
                ? std::span<const std::uint8_t>(resume->discovery_perms[i])
                : std::span<const std::uint8_t>());
      }
    } else {
      add(seed.root_id, table.payload(seed.root_id).flag, 0, 0,
          step_index.intern(sim::Step{}, &graph.steps_), seed.root_perm);
    }

    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t u = order[i];
      const std::uint32_t cu = static_cast<std::uint32_t>(i);
      graph.open_edges(cu);
      // A checkpointed node's edges (none for its frontier nodes, the only
      // prefix nodes this session expanded).
      if (resume != nullptr && i < resume->edges.size()) {
        graph.edges_.insert(graph.edges_.end(), resume->edges[i].begin(),
                            resume->edges[i].end());
      }
      const RawRef ref = raw[u];
      if (ref.range == nullptr) continue;  // not expanded (this session)
      const std::vector<std::uint32_t>& steps = step_map[ref.worker];
      for (std::uint32_t e = ref.range->begin; e < ref.range->end; ++e) {
        const RawEdge& edge = ref.sink->pool[e];
        if (out.canon[edge.to] == kUnassigned) {
          // The canonical discovery perm is the first-touch edge's perm
          // (the racing worker's perm may belong to a different parent
          // edge).
          add(edge.to, table.payload(edge.to).flag, graph.depths_[cu] + 1, cu,
              steps[edge.step],
              sym_active ? ref.sink->perm(e) : std::span<const std::uint8_t>());
        }
        const sim::Step& step = ref.sink->steps[edge.step];
        graph.edges_.push_back(
            Edge{out.canon[edge.to], step.pid, step.action.kind});
      }
    }
    // Every interned node has an in-edge from an expanded node (or is the
    // root / checkpoint prefix), so the walk must have covered the table.
    LBSA_CHECK(graph.node_count() == total);
    return out;
  }

  // Work-stealing interruption: trims the walked graph back to the deepest
  // level L such that every node of depth < L is expanded — exactly the
  // state a serial run interrupted at boundary L would return (for
  // non-truncated runs; a truncated prefix is schedule-dependent for every
  // engine). Returns false (untouched) when the graph is complete. Walk
  // depths are non-decreasing in canonical id order (FIFO walk), so the
  // prefix is literally an array prefix.
  static bool trim_to_complete_prefix(
      CanonicalBuild* b, const BatchTable& table,
      const std::vector<ParallelWorker>& workers, bool prefix_truncated) {
    ConfigGraph& graph = b->graph;
    const std::uint32_t n = graph.node_count();
    std::vector<std::uint8_t> expanded(n, 0);
    for (const ParallelWorker& w : workers) {
      for (const EdgeRange& r : w.sink.ranges) expanded[b->canon[r.id]] = 1;
    }
    auto state = [&](std::uint32_t i) {
      return table.payload(b->order[i]).state;
    };
    std::uint32_t level = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (state(i) == NodeMeta::kFresh && !expanded[i]) {
        level = std::min(level, graph.depths_[i]);
      }
    }
    if (level == std::numeric_limits<std::uint32_t>::max()) return false;

    // Depths are non-decreasing in id order: level L is [first, keep).
    const auto& depths = graph.depths_;
    const auto first = static_cast<std::uint32_t>(
        std::lower_bound(depths.begin(), depths.end(), level) - depths.begin());
    const auto keep = static_cast<std::uint32_t>(
        std::upper_bound(depths.begin(), depths.end(), level) - depths.begin());
    // Depth-L nodes may have been expanded already; a serial run
    // interrupted at boundary L has not expanded any of them, so their
    // edges (and everything those edges discovered) are discarded and they
    // return to the pending frontier.
    graph.truncate(keep, first);
    graph.pending_frontier_.clear();
    bool kept_beyond = false;
    for (std::uint32_t i = 0; i < keep; ++i) {
      if (state(i) == NodeMeta::kBeyondBudget) kept_beyond = true;
      if (i >= first && state(i) == NodeMeta::kFresh) {
        graph.pending_frontier_.push_back(i);
      }
    }
    graph.transition_count_ = graph.edges_.size();
    graph.truncated_ = kept_beyond || prefix_truncated;
    graph.interrupted_ = true;
    graph.levels_completed_ = level;
    return true;
  }
};

}  // namespace internal

namespace {

// Stable explorer counters, derived from the canonical graph so totals are
// byte-identical to the serial engine no matter how expansion was scheduled —
// including registration: a counter the serial engine would have ADDed
// (even with 0) is ADDed here, and one it never touches is not.
// level_limit bounds which nodes' per-expansion tallies count: UINT32_MAX
// for complete / level-boundary graphs, the trimmed level for a trimmed
// work-stealing graph (whose deeper expansions were discarded).
void add_stable_counters(const std::vector<std::uint32_t>& canon,
                         const std::vector<ParallelWorker>& workers,
                         const ConfigGraph& graph, const SeedState& seed,
                         bool fresh_run, std::uint32_t level_limit) {
  const std::uint64_t prefix = seed.prefix_prov.size();
  const std::uint64_t new_nodes = graph.node_count() - prefix;
  if (new_nodes > 0) LBSA_OBS_COUNTER_ADD("explore.nodes", new_nodes);
  const std::uint64_t new_transitions =
      graph.transition_count() - seed.base_transitions;
  if (new_transitions > 0) {
    LBSA_OBS_COUNTER_ADD("explore.transitions", new_transitions);
  }
  // The serial engine counts a rename per canonicalized successor (duplicate
  // or not) plus one for the root of a fresh run.
  std::uint64_t renamed = fresh_run && !seed.root_perm.empty() ? 1 : 0;
  std::uint64_t skips = 0;
  bool any_ample = false;
  for (const ParallelWorker& w : workers) {
    for (const EdgeRange& r : w.sink.ranges) {
      if (level_limit != std::numeric_limits<std::uint32_t>::max()) {
        const std::uint32_t c = canon[r.id];
        if (c >= graph.node_count() || graph.depth(c) >= level_limit) {
          continue;
        }
      }
      renamed += r.renamed;
      skips += r.por_skips;
      any_ample = any_ample || r.had_ample != 0;
    }
  }
  if (renamed > 0) LBSA_OBS_COUNTER_ADD("explore.sym.renamed", renamed);
  if (any_ample) LBSA_OBS_COUNTER_ADD("explore.por.skips", skips);
}

// Intern-table totals (quiescent). Probe counts depend on the insertion
// interleaving and the serial engine has no intern table at all, so every
// explore.intern.* metric is volatile by construction.
void add_intern_metrics(const BatchTable& table,
                        const BatchTable::Tally& tally) {
  if (!obs::metrics_enabled()) return;
  const auto stats = table.stats();
  LBSA_OBS_COUNTER_ADD_V("explore.intern.probes", tally.probes);
  LBSA_OBS_COUNTER_ADD_V("explore.intern.cas_retries", tally.cas_retries);
  LBSA_OBS_GAUGE_SET_V("explore.intern.entries",
                       static_cast<std::int64_t>(stats.entries));
  LBSA_OBS_GAUGE_SET_V("explore.intern.slots",
                       static_cast<std::int64_t>(stats.slots));
  LBSA_OBS_GAUGE_SET_V("explore.intern.max_shard_entries",
                       static_cast<std::int64_t>(stats.max_shard_entries));
  LBSA_OBS_GAUGE_SET_V("explore.intern.growths",
                       static_cast<std::int64_t>(stats.growths));
  LBSA_OBS_HISTOGRAM_OBSERVE_V(
      "explore.intern.probe_length",
      stats.entries == 0 ? 0 : tally.probes / stats.entries);
}

// Canonical ids of the pending frontier (ascending — the serial deque
// order), from a post-walk canon map.
std::vector<std::uint32_t> canonical_frontier(
    const std::vector<WorkItem>& frontier,
    const std::vector<std::uint32_t>& canon) {
  std::vector<std::uint32_t> pending;
  pending.reserve(frontier.size());
  for (const WorkItem& item : frontier) pending.push_back(canon[item.id]);
  std::sort(pending.begin(), pending.end());
  return pending;
}

void name_trace_lanes(int threads) {
  if (!obs::tracing_enabled()) return;
  obs::Tracer::global().set_lane_name(0, "coordinator");
  for (int t = 0; t < threads; ++t) {
    obs::Tracer::global().set_lane_name(t + 1, "worker " + std::to_string(t));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Work-stealing engine.
//
// Level pauses. A run with max_levels or periodic checkpoints has a pause
// level B: the next level boundary at which it must stop or snapshot.
// Workers park every discovery of stored depth >= B instead of queueing it.
// Once the queues drain, the canonical walk gives every node its BFS depth,
// and parked nodes shallower than B are queued again at that depth; this
// repeats until none is left. Stored depths only over-estimate, so from
// then on the expanded nodes are exactly those of depth < B (the serial
// engine's state at boundary B) and the parked ones, all of depth B, are
// its pending frontier. The run then stops (max_levels) or writes a
// checkpoint, raises B and releases the parked nodes. A run with neither
// option has no pause level and never parks.
// ---------------------------------------------------------------------------

StatusOr<ConfigGraph> Explorer::explore_work_stealing(
    const ExploreOptions& options, int threads, const FlagFn& flag_fn,
    std::int64_t initial_flag, const sim::Canonicalizer* sym, bool por,
    std::uint64_t fingerprint) const {
  const sim::Protocol& protocol = *protocol_;
  BatchTable table;
  std::atomic<bool> exhausted{false};
  std::atomic<bool> truncated{false};

  WordArena seed_arena;
  BatchTable::Tally seed_tally;
  auto seed_or = seed_table(protocol, &table, &seed_arena, &seed_tally,
                            options.resume, sym, initial_flag);
  if (!seed_or.is_ok()) return seed_or.status();
  SeedState seed = std::move(seed_or).value();
  truncated.store(seed.truncated, std::memory_order_relaxed);

  constexpr std::uint32_t kNoPause = std::numeric_limits<std::uint32_t>::max();
  auto levels_after = [](std::uint32_t level, std::uint32_t n) {
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kNoPause, std::uint64_t{level} + n));
  };
  const std::uint32_t stop_level =
      options.max_levels > 0
          ? levels_after(seed.start_depth, options.max_levels)
          : kNoPause;
  const std::uint32_t checkpoint_every =
      options.checkpoint_path.empty() ? 0 : options.checkpoint_every_levels;
  auto next_pause = [&](std::uint32_t level) {
    return checkpoint_every > 0
               ? std::min(stop_level, levels_after(level, checkpoint_every))
               : stop_level;
  };
  // Changed only between rounds, while no worker runs.
  std::uint32_t pause_level = next_pause(seed.start_depth);

  // Each worker adds its own fresh inserts and edge-pool growth to
  // `progress`; explore() added a resumed prefix, and a fresh run's root is
  // published here.
  obs::Progress* const progress = options.progress;
  if (progress != nullptr) {
    progress->configure_workers(threads);
    if (options.resume == nullptr) {
      progress->nodes_total.fetch_add(1, std::memory_order_relaxed);
    }
  }

  name_trace_lanes(threads);

  std::vector<ParallelWorker> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(Expander(&protocol, &table, &flag_fn, sym, por,
                                  options.max_nodes, options.allow_truncation,
                                  &truncated));
    attach_canon_cache(options, sym, static_cast<std::size_t>(t),
                       workers.back().ex.canon_scratch());
  }

  struct WsQueue {
    std::mutex mu;
    std::deque<WorkItem> items;
  };
  std::deque<WsQueue> queues(static_cast<std::size_t>(threads));
  // Items queued but not yet expanded (queued or inside a worker's chunk).
  // Zero with all queues empty == the end of a round.
  std::atomic<std::int64_t> in_flight{0};
  std::atomic<bool> stop{false};

  // Deals `items` round-robin onto the queues; only between rounds.
  auto enqueue = [&](std::vector<WorkItem>* items) {
    in_flight.fetch_add(static_cast<std::int64_t>(items->size()),
                        std::memory_order_relaxed);
    for (std::size_t i = 0; i < items->size(); ++i) {
      queues[i % static_cast<std::size_t>(threads)].items.push_back(
          (*items)[i]);
    }
    items->clear();
  };
  enqueue(&seed.frontier);

  auto worker_main = [&](int widx) {
    ParallelWorker& w = workers[static_cast<std::size_t>(widx)];
    obs::Span worker_span("explore.worker", obs::kCatWorker, widx + 1);
    obs::Progress::WorkerSlot* slot =
        progress != nullptr ? progress->worker(widx) : nullptr;
    const std::uint64_t expanded_before = w.expanded;
    std::vector<WorkItem> chunk;
    auto emit = [&](WorkItem&& item) {
      if (item.depth >= pause_level) {
        w.parked.push_back(std::move(item));
        return;
      }
      in_flight.fetch_add(1, std::memory_order_acq_rel);
      WsQueue& own = queues[static_cast<std::size_t>(widx)];
      std::lock_guard<std::mutex> lock(own.mu);
      own.items.push_back(std::move(item));
    };
    while (!stop.load(std::memory_order_relaxed)) {
      chunk.clear();
      {
        WsQueue& own = queues[static_cast<std::size_t>(widx)];
        std::lock_guard<std::mutex> lock(own.mu);
        while (!own.items.empty() && chunk.size() < kChunk) {
          chunk.push_back(std::move(own.items.front()));
          own.items.pop_front();
        }
      }
      if (chunk.empty() && threads > 1) {
        // Steal up to half the victim's queue (capped at a chunk), oldest
        // items first — oldest are shallowest, which keeps expansion close
        // to BFS order (fewer pause re-queues, a deeper cancellation trim).
        for (int off = 1; off < threads && chunk.empty(); ++off) {
          WsQueue& victim =
              queues[static_cast<std::size_t>((widx + off) % threads)];
          std::lock_guard<std::mutex> lock(victim.mu);
          if (victim.items.empty()) continue;
          std::size_t take = std::min(kChunk, (victim.items.size() + 1) / 2);
          while (take-- > 0) {
            chunk.push_back(std::move(victim.items.front()));
            victim.items.pop_front();
          }
          ++w.steals;
          if (slot != nullptr) {
            slot->steals.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (chunk.empty()) ++w.steal_misses;
      }
      if (chunk.empty()) {
        if (in_flight.load(std::memory_order_acquire) == 0) break;
        std::this_thread::yield();
        continue;
      }
      // Work-chunk boundary: this engine's cancel/deadline poll point.
      if ((options.cancel != nullptr && options.cancel->cancelled()) ||
          deadline_passed(options.deadline)) {
        // The chunk's items (and everything still queued) simply stay
        // unexpanded; the trim pass finds the deepest complete level
        // regardless of where each worker stopped.
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      if (slot != nullptr) slot->busy.store(1, std::memory_order_relaxed);
      const bool ok =
          w.ex.expand_chunk(std::span<WorkItem>(chunk), &w.sink, emit);
      w.expanded += chunk.size();
      in_flight.fetch_sub(static_cast<std::int64_t>(chunk.size()),
                          std::memory_order_acq_rel);
      // Chunk boundary: the engine's counter-drain cadence (it has no level
      // barriers); the final chunk's drain publishes the run totals.
      if (sym != nullptr) {
        add_canon_metrics(*w.ex.canon_scratch(), &w.canon_seen);
      }
      // Work-chunk boundary: this engine's live-publication point.
      if (progress != nullptr) {
        publish_delta(progress->nodes_total, w.ex.tally().inserts,
                      &w.seen_inserts);
        publish_delta(progress->transitions_total, w.sink.pool.size(),
                      &w.seen_edges);
        const std::int64_t pending =
            in_flight.load(std::memory_order_relaxed);
        progress->frontier_size.store(
            pending > 0 ? static_cast<std::uint64_t>(pending) : 0,
            std::memory_order_relaxed);
      }
      if (slot != nullptr) {
        slot->busy.store(0, std::memory_order_relaxed);
        slot->expanded.fetch_add(chunk.size(), std::memory_order_relaxed);
        const std::uint64_t cas_retries = w.ex.tally().cas_retries;
        slot->cas_retries.fetch_add(cas_retries - w.seen_cas_retries,
                                    std::memory_order_relaxed);
        w.seen_cas_retries = cas_retries;
      }
      if (!ok) {
        exhausted.store(true, std::memory_order_relaxed);
        stop.store(true, std::memory_order_relaxed);
      }
    }
    worker_span.arg("expanded",
                    static_cast<std::int64_t>(w.expanded - expanded_before));
  };

  // The graph's word store size at quiescence: every interned key minus
  // its flag word.
  auto stored_words = [&] {
    std::uint64_t words = seed_arena.allocated_words();
    for (const ParallelWorker& w : workers) words += w.ex.key_words();
    return words - table.size();
  };

  // Rounds: run the pool until the queues drain, then settle or act on the
  // pause level (see the comment above this function).
  std::vector<WorkItem> parked;
  bool paused = false;  // stopped exactly at pause_level, `parked` pending
  Status checkpoint_status = Status::ok();
  while (true) {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker_main, t);
    for (std::thread& t : pool) t.join();
    if (stop.load(std::memory_order_relaxed)) break;
    for (ParallelWorker& w : workers) {
      parked.insert(parked.end(), w.parked.begin(), w.parked.end());
      w.parked.clear();
    }
    if (parked.empty()) break;  // complete
    const std::vector<std::uint32_t> depth =
        internal::GraphBuilder::canonical_depths(table, workers, seed,
                                                 options.resume);
    std::vector<WorkItem> shallow;
    std::vector<WorkItem> at_pause;
    for (WorkItem& item : parked) {
      item.depth = depth[item.id];
      (item.depth < pause_level ? shallow : at_pause).push_back(item);
    }
    parked = std::move(at_pause);
    if (!shallow.empty()) {
      enqueue(&shallow);
      continue;
    }
    // Level boundary pause_level, exactly as the serial engine reaches it.
    if (stop_reason(options, pause_level - seed.start_depth) !=
        StopReason::kNone) {
      paused = true;
      break;
    }
    const CanonicalBuild snapshot = internal::GraphBuilder::build(
        table, workers, seed, options.resume, sym != nullptr,
        truncated.load(std::memory_order_relaxed), stored_words());
    checkpoint_status = write_checkpoint(
        snapshot.graph, canonical_frontier(parked, snapshot.canon),
        pause_level, fingerprint, options, flag_fn != nullptr, initial_flag);
    if (!checkpoint_status.is_ok()) break;
    publish_position(progress, pause_level, parked.size());
    pause_level = next_pause(pause_level);
    enqueue(&parked);
  }
  if (!checkpoint_status.is_ok()) return checkpoint_status;

  BatchTable::Tally tally = seed_tally;
  std::uint64_t steals = 0;
  std::uint64_t steal_misses = 0;
  for (const ParallelWorker& w : workers) {
    tally += w.ex.tally();
    steals += w.steals;
    steal_misses += w.steal_misses;
  }
  add_intern_metrics(table, tally);
  if (obs::metrics_enabled()) {
    LBSA_OBS_COUNTER_ADD_V("explore.steal.count", steals);
    LBSA_OBS_COUNTER_ADD_V("explore.steal.failed", steal_misses);
  }

  if (exhausted.load()) {
    return resource_exhausted("explore: node budget exceeded (" +
                              std::to_string(options.max_nodes) + ")");
  }

  CanonicalBuild built = internal::GraphBuilder::build(
      table, workers, seed, options.resume, sym != nullptr,
      truncated.load(std::memory_order_relaxed), stored_words());
  bool trimmed = false;
  if (paused) {
    built.graph.interrupted_ = true;
    built.graph.levels_completed_ = pause_level;
    built.graph.pending_frontier_ = canonical_frontier(parked, built.canon);
  } else {
    trimmed = internal::GraphBuilder::trim_to_complete_prefix(
        &built, table, workers, seed.truncated);
  }
  ConfigGraph graph = std::move(built.graph);
  if (graph.interrupted_) {
    if (!options.checkpoint_path.empty()) {
      const Status written = write_checkpoint(
          graph, graph.pending_frontier_, graph.levels_completed_,
          fingerprint, options, flag_fn != nullptr, initial_flag);
      if (!written.is_ok()) return written;
    }
  } else {
    graph.levels_completed_ =
        graph.depths_.empty() ? 0 : graph.depths_.back() + 1;
  }
  add_stable_counters(built.canon, workers, graph, seed,
                      options.resume == nullptr,
                      trimmed ? graph.levels_completed_
                              : std::numeric_limits<std::uint32_t>::max());
  publish_position(progress, graph.levels_completed_,
                   graph.pending_frontier_.size());
  record_graph_metrics(graph);
  return graph;
}

void ConfigGraph::add_node(std::span<const std::int64_t> words,
                           std::int64_t flag, std::uint32_t depth,
                           std::uint32_t parent, std::uint32_t step,
                           std::span<const std::uint8_t> perm) {
  words_.insert(words_.end(), words.begin(), words.end());
  word_begin_.push_back(words_.size());
  flags_.push_back(flag);
  depths_.push_back(depth);
  parents_.push_back(parent);
  parent_steps_.push_back(step);
  if (has_perms_) {
    perm_bytes_.insert(perm_bytes_.end(), perm.begin(), perm.end());
    perm_begin_.push_back(static_cast<std::uint32_t>(perm_bytes_.size()));
  }
}

void ConfigGraph::truncate(std::uint32_t n, std::uint32_t first_unexpanded) {
  words_.resize(word_begin_[n]);
  word_begin_.resize(n + 1);
  flags_.resize(n);
  depths_.resize(n);
  parents_.resize(n);
  parent_steps_.resize(n);
  if (has_perms_) {
    perm_bytes_.resize(perm_begin_[n]);
    perm_begin_.resize(n + 1);
  }
  if (first_unexpanded < edge_begin_.size()) {
    edges_.resize(edge_begin_[first_unexpanded]);
    edge_begin_.resize(first_unexpanded);
  }
}

sim::Config ConfigGraph::config(std::uint32_t id) const {
  auto config = sim::decode_config(words(id));
  LBSA_CHECK_MSG(config.is_ok(), config.status().to_string().c_str());
  return std::move(config).value();
}

std::uint64_t ConfigGraph::memory_bytes() const {
  auto bytes = [](const auto& v) -> std::uint64_t {
    return v.capacity() * sizeof(v[0]);
  };
  return bytes(words_) + bytes(word_begin_) + bytes(flags_) + bytes(depths_) +
         bytes(edge_begin_) + bytes(edges_) + bytes(parents_) +
         bytes(parent_steps_) + bytes(steps_) + bytes(perm_begin_) +
         bytes(perm_bytes_) + bytes(pending_frontier_);
}

Node NodeRange::iterator::operator*() const {
  return Node{graph_->config(id_), graph_->flag(id_), graph_->depth(id_)};
}

std::size_t NodeRange::size() const { return graph_->node_count(); }

Node NodeRange::operator[](std::size_t id) const {
  return *iterator(graph_, static_cast<std::uint32_t>(id));
}

std::vector<sim::Step> ConfigGraph::path_to(std::uint32_t id) const {
  if (canonicalizer_ == nullptr) {
    std::vector<sim::Step> steps;
    for (std::uint32_t cur = id; cur != root(); cur = parents_[cur]) {
      steps.push_back(parent_step(cur));
    }
    std::reverse(steps.begin(), steps.end());
    return steps;
  }

  // Symmetry-reduced graph: every recorded step acted in its parent's
  // *representative* space, so the raw parent chain is generally not an
  // execution of the protocol. Lift it: maintain σ, the renaming that maps
  // the concrete run being rebuilt onto the stored representative of the
  // current node (σ starts as the root's canonicalizing perm and composes
  // each node's discovery perm on the way down); a representative step by
  // pid r lifts to a concrete step by σ⁻¹(r) with the same outcome choice
  // (renaming maps outcome lists elementwise in order — see sim/symmetry.h).
  std::vector<std::uint32_t> chain;  // nodes after the root, in path order
  for (std::uint32_t cur = id; cur != root(); cur = parents_[cur]) {
    chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());

  const sim::Protocol& protocol = *lift_protocol_;
  const int n = protocol.process_count();
  std::vector<int> sigma(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) sigma[static_cast<std::size_t>(p)] = p;
  auto compose = [&](std::span<const std::uint8_t> pi) {
    if (pi.empty()) return;  // identity
    for (int p = 0; p < n; ++p) {
      sigma[static_cast<std::size_t>(p)] = static_cast<int>(
          pi[static_cast<std::size_t>(sigma[static_cast<std::size_t>(p)])]);
    }
  };
  compose(discovery_perm(root()));

  sim::Config concrete = sim::initial_config(protocol);
  std::vector<sim::Step> steps;
  steps.reserve(chain.size());
  for (std::uint32_t v : chain) {
    const sim::Step& rep_step = parent_step(v);
    int concrete_pid = -1;
    for (int p = 0; p < n; ++p) {
      if (sigma[static_cast<std::size_t>(p)] == rep_step.pid) {
        concrete_pid = p;
        break;
      }
    }
    LBSA_CHECK(concrete_pid >= 0);
    steps.push_back(sim::apply_step(protocol, &concrete, concrete_pid,
                                    rep_step.outcome_choice));
    compose(discovery_perm(v));
  }
  // Certify the lift: renaming the concrete endpoint by σ must reproduce
  // the stored representative bit for bit.
  sim::Config renamed = concrete;
  sim::apply_pid_permutation(protocol, sigma, &renamed);
  LBSA_CHECK_MSG(std::ranges::equal(renamed.encode(), words(id)),
                 "symmetry lift failed to land on the representative");
  return steps;
}

std::uint64_t ConfigGraph::full_node_estimate() const {
  if (canonicalizer_ == nullptr) return node_count();
  std::uint64_t total = 0;
  sim::Config config;
  for (std::uint32_t id = 0; id < node_count(); ++id) {
    LBSA_CHECK(sim::decode_config_into(words(id), &config).is_ok());
    total += canonicalizer_->orbit_size(config);
  }
  return total;
}

const char* reduction_name(Reduction reduction) {
  switch (reduction) {
    case Reduction::kNone:
      return "none";
    case Reduction::kSymmetry:
      return "symmetry";
    case Reduction::kPor:
      return "por";
    case Reduction::kBoth:
      return "both";
  }
  return "none";
}

StatusOr<Reduction> parse_reduction(const std::string& name) {
  if (name == "none") return Reduction::kNone;
  if (name == "symmetry") return Reduction::kSymmetry;
  if (name == "por") return Reduction::kPor;
  if (name == "both") return Reduction::kBoth;
  return invalid_argument("unknown reduction '" + name +
                          "' (known: none, symmetry, por, both)");
}

const char* engine_name(ExploreEngine engine) {
  switch (engine) {
    case ExploreEngine::kAuto:
      return "auto";
    case ExploreEngine::kSerial:
      return "serial";
    case ExploreEngine::kWorkStealing:
      return "workstealing";
  }
  return "auto";
}

StatusOr<ExploreEngine> parse_engine(const std::string& name) {
  if (name == "auto") return ExploreEngine::kAuto;
  if (name == "serial") return ExploreEngine::kSerial;
  if (name == "workstealing") return ExploreEngine::kWorkStealing;
  return invalid_argument("unknown engine '" + name +
                          "' (known: auto, serial, workstealing)");
}

StatusOr<ConfigGraph> Explorer::explore(const ExploreOptions& options,
                                        FlagFn flag_fn,
                                        std::int64_t initial_flag) const {
  if (options.threads < 0 || options.threads > kMaxExploreThreads) {
    return invalid_argument("explore: threads must be in [0, " +
                            std::to_string(kMaxExploreThreads) + "], got " +
                            std::to_string(options.threads));
  }
  const int threads = resolve_threads(options);

  const bool want_sym = options.reduction == Reduction::kSymmetry ||
                        options.reduction == Reduction::kBoth;
  const bool por = options.reduction == Reduction::kPor ||
                   options.reduction == Reduction::kBoth;
  std::shared_ptr<const sim::Canonicalizer> sym;
  if (want_sym) {
    sim::SymmetrySpec spec = protocol_->symmetry();
    if (!spec.trivial()) {
      if (flag_fn && !options.flag_fn_symmetric) {
        return invalid_argument(
            "explore: flag function combined with symmetry reduction on a "
            "protocol with a non-trivial symmetry group; declare invariance "
            "via ExploreOptions::flag_fn_symmetric or drop to "
            "reduction=none/por");
      }
      // Reuse a caller-built canonicalizer (the hierarchy sweep shares one
      // per cell, with its precomputed group and orbit tables) only when it
      // was built for this exact protocol instance — the contract on
      // ExploreOptions::canonicalizer. Anything else falls back to a fresh
      // build.
      if (options.canonicalizer != nullptr &&
          options.canonicalizer->protocol().get() == protocol_.get()) {
        sym = options.canonicalizer;
      } else {
        sym = std::make_shared<const sim::Canonicalizer>(protocol_,
                                                         std::move(spec));
      }
      LBSA_OBS_GAUGE_MAX("explore.sym.group_size",
                         static_cast<std::int64_t>(sym->group_size()));
    }
  }

  const std::uint64_t fingerprint = explore_fingerprint(
      *protocol_, options, flag_fn != nullptr, initial_flag);
  if (options.resume != nullptr) {
    const ExploreCheckpoint& cp = *options.resume;
    if (cp.fingerprint != fingerprint) {
      const std::string suffix =
          cp.task_label.empty() ? std::string()
                                : " (checkpoint task: '" + cp.task_label + "')";
      // Name the mismatched knob when an echoed parameter disagrees; fall
      // back to the generic fingerprint message (different protocol/task).
      if (cp.reduction != options.reduction) {
        return failed_precondition(
            std::string("resume: checkpoint was written under reduction '") +
            reduction_name(cp.reduction) + "', this run requests '" +
            reduction_name(options.reduction) + "'" + suffix);
      }
      if (cp.max_nodes != options.max_nodes) {
        return failed_precondition(
            "resume: checkpoint node budget " + std::to_string(cp.max_nodes) +
            " does not match requested " + std::to_string(options.max_nodes) +
            suffix);
      }
      if (cp.allow_truncation != options.allow_truncation) {
        return failed_precondition(
            "resume: checkpoint allow_truncation disagrees with this run" +
            suffix);
      }
      if (cp.has_flag_fn != (flag_fn != nullptr)) {
        return failed_precondition(
            std::string("resume: checkpoint was written ") +
            (cp.has_flag_fn ? "with" : "without") +
            " a path-flag function, this run is the opposite" + suffix);
      }
      if (cp.initial_flag != initial_flag) {
        return failed_precondition(
            "resume: checkpoint initial flag " +
            std::to_string(cp.initial_flag) + " does not match requested " +
            std::to_string(initial_flag) + suffix);
      }
      return failed_precondition(
          "resume: checkpoint fingerprint mismatch — written for a "
          "different protocol/task or option set" +
          suffix);
    }
    if (cp.node_words.empty()) {
      return invalid_argument("resume: checkpoint has no nodes");
    }
    if ((sym != nullptr) != !cp.discovery_perms.empty()) {
      return invalid_argument(
          "resume: checkpoint discovery permutations disagree with the "
          "active symmetry reduction");
    }
    for (std::uint32_t id : cp.frontier) {
      if (cp.node_depths[id] != cp.levels_completed) {
        return invalid_argument(
            "resume: frontier node depth disagrees with levels_completed");
      }
    }
    // Nodes are expanded in id order, so none from the first frontier
    // node on can have been expanded yet.
    for (std::size_t i = cp.frontier.empty() ? cp.edges.size()
                                             : cp.frontier.front();
         i < cp.edges.size(); ++i) {
      if (!cp.edges[i].empty()) {
        return invalid_argument(
            "resume: checkpoint node at or past the frontier has edges");
      }
    }
    if (Status s = check_checkpoint_nodes(*protocol_, cp); !s.is_ok()) {
      return s;
    }
  }

  LBSA_OBS_COUNTER_ADD("explore.runs", 1);
  LBSA_OBS_SPAN(run_span, "explore.run", obs::kCatTask, /*lane=*/0);

  // Effective options for the engines: install a private orbit-cache pool
  // when symmetry is on and the caller did not share one. The pool only
  // accelerates canonical_encode_into — it never shapes the graph — so it
  // deliberately stays outside the fingerprint. Small groups are exempt:
  // below ~64 elements the pruned scan is already cheaper than hashing the
  // raw encoding plus the hit-verify memcmp, so a cache is pure overhead
  // (measured on dac5-sym, group 24). Callers that pass an explicit pool —
  // the hierarchy sweep, the equivalence tests — are always honored.
  constexpr std::size_t kCanonCacheMinGroup = 64;
  ExploreOptions opts = options;
  if (sym != nullptr && opts.canon_cache_pool == nullptr &&
      opts.canon_cache_bytes > 0 &&
      sym->group_size() >= kCanonCacheMinGroup) {
    opts.canon_cache_pool =
        std::make_shared<sim::CanonCachePool>(opts.canon_cache_bytes);
  }

  // A resumed run continues the interrupted run's cumulative counts; the
  // engines publish only what they add to the prefix.
  if (obs::Progress* progress = options.progress;
      progress != nullptr && options.resume != nullptr) {
    const ExploreCheckpoint& cp = *options.resume;
    progress->nodes_total.fetch_add(cp.node_words.size(),
                                    std::memory_order_relaxed);
    progress->transitions_total.fetch_add(cp.transition_count,
                                          std::memory_order_relaxed);
    publish_position(progress, cp.levels_completed, cp.frontier.size());
  }

  // kAuto: one worker runs the serial reference engine, more run work
  // stealing from the root (or from `resume`).
  ExploreEngine used = options.engine;
  if (used == ExploreEngine::kAuto) {
    used = threads > 1 ? ExploreEngine::kWorkStealing : ExploreEngine::kSerial;
  }
  StatusOr<ConfigGraph> result =
      used == ExploreEngine::kSerial
          ? explore_serial(opts, flag_fn, initial_flag, sym.get(), por,
                           fingerprint)
          : explore_work_stealing(opts, threads, flag_fn, initial_flag,
                                  sym.get(), por, fingerprint);

  if (result.is_ok()) {
    ConfigGraph& graph = result.value();
    // Volatile: capacity depends on the engine's growth pattern.
    LBSA_OBS_GAUGE_SET_V("explore.graph.bytes",
                         static_cast<std::int64_t>(graph.memory_bytes()));
    graph.reduction_ = options.reduction;
    graph.engine_used_ = used;
    graph.canonicalizer_ = std::move(sym);
    graph.lift_protocol_ = protocol_;
  }
  return result;
}

}  // namespace lbsa::modelcheck
