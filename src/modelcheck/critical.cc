#include "modelcheck/critical.h"

namespace lbsa::modelcheck {

CriticalInfo analyze_pending_steps(const sim::Protocol& protocol,
                                   const ConfigGraph& graph,
                                   std::uint32_t node) {
  CriticalInfo info;
  info.node = node;
  const sim::Config config = graph.config(node);

  for (int pid = 0; pid < static_cast<int>(config.procs.size()); ++pid) {
    if (!config.enabled(pid)) continue;
    const sim::Action action =
        protocol.next_action(pid, config.procs[static_cast<size_t>(pid)]);
    PendingStep step;
    step.pid = pid;
    if (action.kind == sim::Action::Kind::kInvoke) {
      step.object_index = action.object_index;
      const auto& type =
          *protocol.objects()[static_cast<size_t>(action.object_index)];
      step.description = type.name() + "#" +
                         std::to_string(action.object_index) + "." +
                         type.operation_to_string(action.op);
    } else {
      step.object_index = -1;
      step.description = action.kind == sim::Action::Kind::kDecide
                             ? "decide(" + value_to_string(action.decision) +
                                   ")"
                             : "abort";
    }
    info.pending.push_back(std::move(step));
  }

  info.all_on_same_object = !info.pending.empty();
  for (const PendingStep& step : info.pending) {
    if (step.object_index < 0 ||
        (info.common_object >= 0 && step.object_index != info.common_object)) {
      info.all_on_same_object = false;
      break;
    }
    info.common_object = step.object_index;
  }
  if (info.all_on_same_object) {
    info.common_object_type =
        protocol.objects()[static_cast<size_t>(info.common_object)]->name();
  } else {
    info.common_object = -1;
  }
  return info;
}

std::vector<CriticalInfo> analyze_critical_configurations(
    const sim::Protocol& protocol, const ConfigGraph& graph,
    const ValenceAnalyzer& analyzer) {
  std::vector<CriticalInfo> out;
  for (std::uint32_t node : analyzer.critical_nodes()) {
    out.push_back(analyze_pending_steps(protocol, graph, node));
  }
  return out;
}

}  // namespace lbsa::modelcheck
