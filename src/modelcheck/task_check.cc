#include "modelcheck/task_check.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "base/check.h"
#include "base/hashing.h"
#include "obs/obs.h"

namespace lbsa::modelcheck {
namespace {

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const {
    return static_cast<std::size_t>(hash_words(key));
  }
};

std::vector<std::string> format_path(const sim::Protocol& protocol,
                                     const ConfigGraph& graph,
                                     std::uint32_t id) {
  std::vector<std::string> out;
  for (const sim::Step& step : graph.path_to(id)) {
    out.push_back(step.to_string(protocol));
  }
  return out;
}

// Collects the distinct decided values in a configuration.
std::vector<Value> decided_values(const sim::ConfigView& config) {
  std::vector<Value> out;
  for (int pid = 0; pid < config.process_count(); ++pid) {
    const sim::ConfigView::Process ps = config.proc(pid);
    if (ps.decided()) out.push_back(ps.decision);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Solo-run termination: from a start node, process pid runs alone; over
// every nondeterministic object outcome it must reach kDecided (or kAborted
// when allow_abort) without revisiting a configuration, visiting at most
// node_bound running configurations per start node (memo hits included).
// Verdicts are memoized per pid across all start nodes, keyed by
// configuration: nodes that differ only in their path flag share one entry.
//
// Successors come from one of two sources. On a complete unreduced graph
// every solo successor is already a node behind a pid-labelled edge, listed
// in enumerate_successors order, so the walk follows those edges and keeps
// one memo byte per configuration class. A reduced, truncated or interrupted
// graph need not hold those successors, so the walk re-simulates them and
// memoizes by encoded configuration. Both visit configurations in the same
// order, so they report the same first failing node and the same detail.
// ---------------------------------------------------------------------------

// For each node, the smallest node id with an equal configuration: nodes
// are bucketed by the hash of their stored words, and colliding
// configurations are told apart by comparing the words (the encoding is
// injective).
std::vector<std::uint32_t> config_classes(const ConfigGraph& graph) {
  const std::uint32_t n = graph.node_count();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_hash(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    by_hash[id] = {hash_words(graph.words(id)), id};
  }
  std::sort(by_hash.begin(), by_hash.end());
  std::vector<std::uint32_t> rep(n);
  for (std::size_t run = 0; run < n;) {
    std::size_t end = run + 1;
    while (end < n && by_hash[end].first == by_hash[run].first) ++end;
    for (std::size_t i = run; i < end; ++i) {
      const std::uint32_t id = by_hash[i].second;
      rep[id] = id;
      for (std::size_t j = run; j < i; ++j) {
        const std::uint32_t other = by_hash[j].second;
        if (rep[other] == other &&
            std::ranges::equal(graph.words(other), graph.words(id))) {
          rep[id] = other;
          break;
        }
      }
    }
    run = end;
  }
  return rep;
}

class SoloChecker {
 public:
  // `classes` (from config_classes) selects the graph source and must come
  // from a complete unreduced graph; null selects the simulator.
  SoloChecker(const sim::Protocol& protocol, const ConfigGraph& graph,
              const std::vector<std::uint32_t>* classes, int pid,
              bool allow_abort, std::uint64_t node_bound)
      : protocol_(protocol),
        graph_(graph),
        classes_(classes),
        pid_(pid),
        allow_abort_(allow_abort),
        node_bound_(node_bound) {
    if (classes_ != nullptr) class_memo_.assign(classes_->size(), kUnseen);
  }

  // Returns true iff every solo continuation of pid from node `start`
  // terminates acceptably. On failure fills *detail.
  bool terminates(std::uint32_t start, std::string* detail) {
    nodes_visited_ = 0;
    depth_ = 0;
    bool ok;
    if (classes_ != nullptr) {
      ok = enter(graph_.view(start).proc(pid_).status, nullptr, start, detail);
    } else {
      start_config_ = graph_.config(start);
      ok = enter(start_config_.procs[static_cast<size_t>(pid_)].status,
                 &start_config_, start, detail);
    }
    while (ok && depth_ > 0) {
      // Grow first: enter() writes frames_[depth_] and must not move the
      // parent frame whose successor it reads.
      if (depth_ == frames_.size()) frames_.emplace_back();
      Frame& top = frames_[depth_ - 1];
      if (classes_ != nullptr) {
        const std::span<const Edge> edges = graph_.edges(top.node);
        while (top.next < edges.size() && edges[top.next].pid != pid_) {
          ++top.next;
        }
        if (top.next < edges.size()) {
          const std::uint32_t to = edges[top.next++].to;
          ok = enter(graph_.view(to).proc(pid_).status, nullptr, to, detail);
          continue;
        }
      } else if (top.next < top.succs.size()) {
        const sim::Config& config = top.succs[top.next++].config;
        ok = enter(config.procs[static_cast<size_t>(pid_)].status, &config,
                   /*node=*/0, detail);
        continue;
      }
      *top.memo = kGood;
      --depth_;
    }
    // Forget the failed path so later starts re-examine it.
    while (depth_ > 0) *frames_[--depth_].memo = kUnseen;
    return ok;
  }

 private:
  enum Memo : std::uint8_t { kUnseen = 0, kInProgress, kGood };

  struct Frame {
    std::uint8_t* memo = nullptr;  // this configuration's memo entry
    std::uint32_t node = 0;        // graph source: the node being expanded
    std::size_t next = 0;          // next edge (graph) or successor (sim)
    std::vector<sim::Successor> succs;  // simulator source only
  };

  // Visits a configuration in which pid has `status`: graph node `node`
  // under the graph source, *config under the simulator source. Accepts
  // it, pushes a frame to expand it, or fails with *detail set.
  bool enter(sim::ProcStatus status, const sim::Config* config,
             std::uint32_t node, std::string* detail) {
    if (status == sim::ProcStatus::kDecided) return true;
    if (status == sim::ProcStatus::kAborted) {
      if (allow_abort_) return true;
      *detail = "process p" + std::to_string(pid_) +
                " aborted in a solo run where only decide is allowed";
      return false;
    }
    if (status == sim::ProcStatus::kCrashed) {
      *detail = "process p" + std::to_string(pid_) + " crashed mid-check";
      return false;
    }
    if (++nodes_visited_ > node_bound_) {
      *detail = "solo-run node budget exceeded for p" + std::to_string(pid_);
      return false;
    }

    std::uint8_t& memo = classes_ != nullptr
                             ? class_memo_[(*classes_)[node]]
                             : sim_memo_[config->encode()];
    if (memo == kGood) return true;
    if (memo == kInProgress) {
      // Revisiting an in-progress configuration: pid can cycle solo forever.
      *detail = "process p" + std::to_string(pid_) +
                " can take infinitely many solo steps without terminating";
      return false;
    }
    memo = kInProgress;
    if (depth_ == frames_.size()) frames_.emplace_back();
    Frame& frame = frames_[depth_++];
    frame.memo = &memo;
    frame.node = node;
    frame.next = 0;
    if (classes_ == nullptr) {
      frame.succs.clear();
      sim::enumerate_successors(protocol_, *config, pid_, &frame.succs);
    }
    return true;
  }

  const sim::Protocol& protocol_;
  const ConfigGraph& graph_;
  const std::vector<std::uint32_t>* classes_;
  int pid_;
  bool allow_abort_;
  std::uint64_t node_bound_;
  std::uint64_t nodes_visited_ = 0;
  sim::Config start_config_;  // simulator source: the start node, decoded
  // The DFS stack is frames_[0, depth_); frames above it keep their succs
  // capacity for reuse.
  std::vector<Frame> frames_;
  std::size_t depth_ = 0;
  // Graph source: indexed by class representative. Simulator source: keyed
  // by encoded configuration (unordered_map keeps entry addresses stable).
  std::vector<std::uint8_t> class_memo_;
  std::unordered_map<std::vector<std::int64_t>, std::uint8_t, KeyHash>
      sim_memo_;
};

// ---------------------------------------------------------------------------
// Wait-freedom: process pid violates wait-freedom iff the configuration
// graph, restricted to nodes where pid is still running, contains a cycle
// with at least one pid-step on it — i.e. pid can take infinitely many steps
// without deciding. Detected via iterative Tarjan SCC.
// ---------------------------------------------------------------------------

class WaitFreedomChecker {
 public:
  WaitFreedomChecker(const ConfigGraph& graph, int pid)
      : graph_(graph), pid_(pid) {}

  // Returns a node on a violating cycle, or node_count() if none.
  std::uint32_t find_violation() {
    const std::uint32_t n = graph_.node_count();
    running_.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      running_[v] = graph_.view(v).proc(pid_).running() ? 1 : 0;
    }
    index_.assign(n, kUnvisited);
    lowlink_.assign(n, 0);
    on_stack_.assign(n, 0);
    scc_id_.assign(n, kUnvisited);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (in_subgraph(v) && index_[v] == kUnvisited) tarjan(v);
    }
    // A pid-edge inside one SCC witnesses the cycle.
    for (std::uint32_t u = 0; u < n; ++u) {
      if (!in_subgraph(u)) continue;
      for (const Edge& e : graph_.edges(u)) {
        if (e.pid != pid_ || !in_subgraph(e.to)) continue;
        // A self-loop, or an edge inside a multi-node SCC, lies on a
        // cycle; a single-node SCC without a self-loop has none.
        if (scc_id_[u] == scc_id_[e.to] &&
            (u == e.to || scc_size_[scc_id_[u]] > 1)) {
          return u;
        }
      }
    }
    return n;
  }

 private:
  static constexpr std::uint32_t kUnvisited = ~0u;

  bool in_subgraph(std::uint32_t v) const { return running_[v] != 0; }

  void tarjan(std::uint32_t root) {
    struct Frame {
      std::uint32_t v;
      size_t edge_pos;
    };
    std::vector<Frame> frames{{root, 0}};
    begin_node(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::span<const Edge> edges = graph_.edges(f.v);
      bool descended = false;
      while (f.edge_pos < edges.size()) {
        const Edge& e = edges[f.edge_pos++];
        if (!in_subgraph(e.to)) continue;
        if (index_[e.to] == kUnvisited) {
          begin_node(e.to);
          frames.push_back({e.to, 0});
          descended = true;
          break;
        }
        if (on_stack_[e.to]) {
          lowlink_[f.v] = std::min(lowlink_[f.v], index_[e.to]);
        }
      }
      if (descended) continue;
      // f.v is finished.
      const std::uint32_t v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink_[frames.back().v] =
            std::min(lowlink_[frames.back().v], lowlink_[v]);
      }
      if (lowlink_[v] == index_[v]) {
        const std::uint32_t id = static_cast<std::uint32_t>(scc_size_.size());
        scc_size_.push_back(0);
        std::uint32_t w;
        do {
          w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = 0;
          scc_id_[w] = id;
          ++scc_size_[id];
        } while (w != v);
      }
    }
  }

  void begin_node(std::uint32_t v) {
    index_[v] = lowlink_[v] = next_index_++;
    stack_.push_back(v);
    on_stack_[v] = 1;
  }

  const ConfigGraph& graph_;
  int pid_;
  std::uint32_t next_index_ = 0;
  std::vector<std::uint32_t> index_, lowlink_, scc_id_;
  std::vector<std::uint32_t> scc_size_;
  std::vector<char> on_stack_;
  std::vector<std::uint8_t> running_;  // pid is running, by node
  std::vector<std::uint32_t> stack_;
};

void add_violation(TaskReport* report, const TaskCheckOptions& options,
                   std::string property, std::string detail,
                   std::vector<std::string> trace) {
  if (static_cast<int>(report->violations.size()) >= options.max_violations) {
    return;
  }
  report->violations.push_back(PropertyViolation{
      std::move(property), std::move(detail), std::move(trace)});
}

bool report_full(const TaskReport& report, const TaskCheckOptions& options) {
  return static_cast<int>(report.violations.size()) >= options.max_violations;
}

// A report that is full before the first node would certify nothing.
Status validate_options(const char* checker, const TaskCheckOptions& options) {
  if (options.max_violations >= 1) return Status::ok();
  return invalid_argument(std::string(checker) +
                          ": max_violations must be >= 1 (got " +
                          std::to_string(options.max_violations) + ")");
}

}  // namespace

bool TaskReport::violates(const std::string& property) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const PropertyViolation& v) {
                       return v.property == property;
                     });
}

std::string TaskReport::to_string() const {
  std::string out = "nodes=" + std::to_string(node_count) +
                    " transitions=" + std::to_string(transition_count);
  if (partial) out += " (PARTIAL exploration)";
  if (ok()) return out + " — all properties hold";
  for (const PropertyViolation& v : violations) {
    out += "\nVIOLATION [" + v.property + "]: " + v.detail;
    for (const std::string& s : v.trace) out += "\n    " + s;
  }
  return out;
}

StatusOr<TaskReport> check_k_agreement_task(
    std::shared_ptr<const sim::Protocol> protocol, int k,
    const std::vector<Value>& inputs, const TaskCheckOptions& options) {
  LBSA_CHECK(k >= 1);
  LBSA_CHECK(static_cast<int>(inputs.size()) == protocol->process_count());
  if (Status s = validate_options("check_k_agreement_task", options);
      !s.is_ok()) {
    return s;
  }

  Explorer explorer(protocol);
  StatusOr<ConfigGraph> graph_or = explorer.explore(options.explore);
  if (!graph_or.is_ok()) return graph_or.status();
  const ConfigGraph& graph = graph_or.value();

  TaskReport report;
  report.node_count = graph.node_count();
  report.transition_count = graph.transition_count();
  report.full_node_estimate = graph.full_node_estimate();
  report.interrupted = graph.interrupted();
  report.partial = graph.truncated() || report.interrupted;

  const std::set<Value> input_set(inputs.begin(), inputs.end());

  for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
    const sim::ConfigView config = graph.view(id);
    const std::vector<Value> decided = decided_values(config);
    if (static_cast<int>(decided.size()) > k) {
      add_violation(&report, options, "agreement",
                    std::to_string(decided.size()) +
                        " distinct decisions with k=" + std::to_string(k),
                    format_path(*protocol, graph, id));
    }
    for (Value v : decided) {
      if (!input_set.contains(v)) {
        add_violation(&report, options, "validity",
                      "decided value " + value_to_string(v) +
                          " was never proposed",
                      format_path(*protocol, graph, id));
        break;
      }
    }
    for (int pid = 0; pid < config.process_count(); ++pid) {
      if (config.proc(pid).aborted()) {
        add_violation(&report, options, "no-abort",
                      "process p" + std::to_string(pid) +
                          " aborted in a k-set-agreement task",
                      format_path(*protocol, graph, id));
      }
    }
    if (report_full(report, options)) return report;
  }

  for (int pid = 0; pid < protocol->process_count(); ++pid) {
    WaitFreedomChecker checker(graph, pid);
    const std::uint32_t bad = checker.find_violation();
    if (bad < graph.node_count()) {
      add_violation(
          &report, options, "termination",
          "process p" + std::to_string(pid) +
              " can take infinitely many steps without deciding",
          format_path(*protocol, graph, bad));
      if (report_full(report, options)) return report;
    }
  }
  return report;
}

StatusOr<TaskReport> check_dac_task(
    std::shared_ptr<const sim::Protocol> protocol, int distinguished_pid,
    const std::vector<Value>& inputs, const TaskCheckOptions& options) {
  const int n = protocol->process_count();
  LBSA_CHECK(static_cast<int>(inputs.size()) == n);
  LBSA_CHECK(distinguished_pid >= 0 && distinguished_pid < n);
  if (Status s = validate_options("check_dac_task", options); !s.is_ok()) {
    return s;
  }

  // Path flag: has any process other than p taken a step yet?
  Explorer explorer(protocol);
  auto flag_fn = [distinguished_pid](std::int64_t flag,
                                     const sim::Step& step) -> std::int64_t {
    return (step.pid != distinguished_pid) ? 1 : flag;
  };
  ExploreOptions explore = options.explore;
  if (explore.reduction == Reduction::kSymmetry ||
      explore.reduction == Reduction::kBoth) {
    const sim::SymmetrySpec spec = protocol->symmetry();
    if (!spec.trivial()) {
      // The flag depends only on "pid == p", so it is group-invariant
      // exactly when every group element fixes p. A spec that renames p
      // would silently conflate p-solo histories with others — reject it.
      if (!spec.is_singleton(distinguished_pid)) {
        return invalid_argument(
            "check_dac_task: symmetry reduction requires the declared "
            "symmetry group to fix the distinguished process p" +
            std::to_string(distinguished_pid) +
            " (its orbit must be a singleton)");
      }
      explore.flag_fn_symmetric = true;
    }
  }
  StatusOr<ConfigGraph> graph_or =
      explorer.explore(explore, flag_fn, /*initial_flag=*/0);
  if (!graph_or.is_ok()) return graph_or.status();
  const ConfigGraph& graph = graph_or.value();

  TaskReport report;
  report.node_count = graph.node_count();
  report.transition_count = graph.transition_count();
  report.full_node_estimate = graph.full_node_estimate();
  report.interrupted = graph.interrupted();
  report.partial = graph.truncated() || report.interrupted;

  {
    LBSA_OBS_SPAN(span, "check.properties", obs::kCatPhase, /*lane=*/0);
    for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
      const sim::ConfigView config = graph.view(id);
      const std::vector<Value> decided = decided_values(config);

      // Agreement: at most one distinct decision.
      if (decided.size() > 1) {
        add_violation(&report, options, "agreement",
                      "two distinct decisions",
                      format_path(*protocol, graph, id));
      }

      // Validity: every decided value is the input of a process that has not
      // aborted (abort is irrevocable, and decisions persist, so checking
      // every reachable configuration is equivalent to the per-execution
      // statement).
      for (Value v : decided) {
        bool witnessed = false;
        for (int pid = 0; pid < config.process_count(); ++pid) {
          if (inputs[static_cast<size_t>(pid)] == v &&
              !config.proc(pid).aborted()) {
            witnessed = true;
            break;
          }
        }
        if (!witnessed) {
          add_violation(&report, options, "validity",
                        "decided value " + value_to_string(v) +
                            " has no non-aborting proposer",
                        format_path(*protocol, graph, id));
        }
      }

      // Only the distinguished process may abort.
      for (int pid = 0; pid < config.process_count(); ++pid) {
        if (config.proc(pid).aborted() && pid != distinguished_pid) {
          add_violation(&report, options, "only-p-aborts",
                        "process p" + std::to_string(pid) +
                            " aborted but is not distinguished",
                        format_path(*protocol, graph, id));
        }
      }

      // Nontriviality: p aborted although no other process ever took a step.
      if (config.proc(distinguished_pid).aborted() && graph.flag(id) == 0) {
        add_violation(&report, options, "nontriviality",
                      "p aborted in a run where no other process took a step",
                      format_path(*protocol, graph, id));
      }
      if (report_full(report, options)) return report;
    }
  }

  // Termination (a): from every reachable configuration, p running solo
  // decides or aborts. Termination (b): every q != p running solo decides.
  const bool complete_unreduced = graph.reduction() == Reduction::kNone &&
                                  !graph.truncated() && !graph.interrupted();
  std::vector<std::uint32_t> classes;
  if (complete_unreduced) {
    LBSA_OBS_SPAN(span, "check.classes", obs::kCatPhase, /*lane=*/0);
    classes = config_classes(graph);
  }
  for (int pid = 0; pid < n; ++pid) {
    LBSA_OBS_SPAN(span, "check.solo", obs::kCatPhase, /*lane=*/0);
    span.arg("pid", pid);
    const bool is_p = (pid == distinguished_pid);
    SoloChecker solo(*protocol, graph, complete_unreduced ? &classes : nullptr,
                     pid, /*allow_abort=*/is_p, options.solo_node_bound);
    for (std::uint32_t id = 0; id < graph.node_count(); ++id) {
      std::string detail;
      if (!solo.terminates(id, &detail)) {
        add_violation(&report, options,
                      is_p ? "termination(a)" : "termination(b)", detail,
                      format_path(*protocol, graph, id));
        break;  // one witness per process suffices
      }
    }
    if (report_full(report, options)) return report;
  }
  return report;
}

}  // namespace lbsa::modelcheck
