#include "modelcheck/step_complexity.h"

#include <algorithm>

#include "base/check.h"

namespace lbsa::modelcheck {
namespace {

// Longest pid-step count over all paths in the subgraph of configurations
// where pid is still running. Cycles inside that subgraph that contain a
// pid-step mean "unbounded"; cycles without pid-steps contribute nothing to
// pid's own-step count but must not break the DP — so the DP runs on the
// condensation (Tarjan SCC), with an SCC counting as unbounded iff it
// contains an internal pid-edge.
class LongestPathAnalysis {
 public:
  LongestPathAnalysis(const ConfigGraph& graph, int pid)
      : graph_(graph), pid_(pid) {}

  std::optional<std::uint64_t> run() {
    const std::uint32_t n = graph_.node_count();
    scc_of_.assign(n, kNone);
    index_.assign(n, kNone);
    lowlink_.assign(n, 0);
    on_stack_.assign(n, 0);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (active(v) && index_[v] == kNone) tarjan(v);
    }
    // Tarjan emits SCCs in reverse topological order of the condensation,
    // so iterating sccs_ in emission order processes successors first.
    // best_[s] = max pid-steps achievable starting anywhere in SCC s.
    best_.assign(sccs_.size(), 0);
    for (std::uint32_t s = 0; s < sccs_.size(); ++s) {
      std::uint64_t best = 0;
      bool internal_pid_edge = false;
      for (std::uint32_t v : sccs_[s]) {
        for (const Edge& e : graph_.edges(v)) {
          const std::uint64_t weight = (e.pid == pid_) ? 1 : 0;
          if (!active(e.to)) {
            // pid terminated (or the whole run halted): path ends.
            best = std::max(best, weight);
            continue;
          }
          if (scc_of_[e.to] == s) {
            if (weight > 0) internal_pid_edge = true;
            continue;
          }
          best = std::max(best, weight + best_[scc_of_[e.to]]);
        }
      }
      if (internal_pid_edge) return std::nullopt;  // unbounded
      best_[s] = best;
    }
    if (!active(graph_.root())) return 0;
    return best_[scc_of_[graph_.root()]];
  }

 private:
  static constexpr std::uint32_t kNone = ~0u;

  bool active(std::uint32_t v) const {
    return graph_.view(v).proc(pid_).running();
  }

  void tarjan(std::uint32_t root) {
    struct Frame {
      std::uint32_t v;
      size_t edge_pos;
    };
    std::vector<Frame> frames{{root, 0}};
    begin(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      const std::span<const Edge> edges = graph_.edges(f.v);
      bool descended = false;
      while (f.edge_pos < edges.size()) {
        const Edge& e = edges[f.edge_pos++];
        if (!active(e.to)) continue;
        if (index_[e.to] == kNone) {
          begin(e.to);
          frames.push_back({e.to, 0});
          descended = true;
          break;
        }
        if (on_stack_[e.to]) {
          lowlink_[f.v] = std::min(lowlink_[f.v], index_[e.to]);
        }
      }
      if (descended) continue;
      const std::uint32_t v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink_[frames.back().v] =
            std::min(lowlink_[frames.back().v], lowlink_[v]);
      }
      if (lowlink_[v] == index_[v]) {
        sccs_.emplace_back();
        std::uint32_t w;
        do {
          w = stack_.back();
          stack_.pop_back();
          on_stack_[w] = 0;
          scc_of_[w] = static_cast<std::uint32_t>(sccs_.size() - 1);
          sccs_.back().push_back(w);
        } while (w != v);
      }
    }
  }

  void begin(std::uint32_t v) {
    index_[v] = lowlink_[v] = next_index_++;
    stack_.push_back(v);
    on_stack_[v] = 1;
  }

  const ConfigGraph& graph_;
  int pid_;
  std::uint32_t next_index_ = 0;
  std::vector<std::uint32_t> index_, lowlink_, scc_of_;
  std::vector<char> on_stack_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::vector<std::uint32_t>> sccs_;
  std::vector<std::uint64_t> best_;
};

}  // namespace

std::optional<std::uint64_t> worst_case_own_steps(const ConfigGraph& graph,
                                                  int pid) {
  return LongestPathAnalysis(graph, pid).run();
}

std::vector<std::optional<std::uint64_t>> worst_case_own_steps_all(
    const ConfigGraph& graph, int process_count) {
  std::vector<std::optional<std::uint64_t>> out;
  out.reserve(static_cast<size_t>(process_count));
  for (int pid = 0; pid < process_count; ++pid) {
    out.push_back(worst_case_own_steps(graph, pid));
  }
  return out;
}

}  // namespace lbsa::modelcheck
