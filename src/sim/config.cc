#include "sim/config.h"

#include <utility>

#include "base/check.h"
#include "base/hashing.h"

namespace lbsa::sim {

std::size_t Config::encoded_size() const {
  std::size_t total = 2;  // procs.size() and objects.size() headers
  for (const ProcessState& ps : procs) total += ps.encoded_size();
  for (const auto& obj : objects) total += 1 + obj.size();
  return total;
}

void Config::encode_into(std::vector<std::int64_t>* out) const {
  out->clear();
  out->reserve(encoded_size());
  out->push_back(static_cast<std::int64_t>(procs.size()));
  for (const ProcessState& ps : procs) ps.encode(out);
  out->push_back(static_cast<std::int64_t>(objects.size()));
  for (const auto& obj : objects) {
    out->push_back(static_cast<std::int64_t>(obj.size()));
    out->insert(out->end(), obj.begin(), obj.end());
  }
}

std::int64_t* Config::encode_to(std::int64_t* out) const {
  *out++ = static_cast<std::int64_t>(procs.size());
  for (const ProcessState& ps : procs) out = ps.encode_to(out);
  *out++ = static_cast<std::int64_t>(objects.size());
  for (const auto& obj : objects) {
    *out++ = static_cast<std::int64_t>(obj.size());
    for (std::int64_t w : obj) *out++ = w;
  }
  return out;
}

std::vector<std::int64_t> Config::encode() const {
  std::vector<std::int64_t> out;
  encode_into(&out);
  return out;
}

std::uint64_t Config::hash() const {
  const auto words = encode();
  return hash_words(words);
}

int Config::enabled_count() const {
  int count = 0;
  for (const ProcessState& ps : procs) {
    if (ps.running()) ++count;
  }
  return count;
}

Status decode_config_into(std::span<const std::int64_t> words,
                          Config* out) {
  std::size_t pos = 0;
  auto left = [&] { return words.size() - pos; };
  auto take = [&](std::int64_t* w) -> bool {
    if (pos >= words.size()) return false;
    *w = words[pos++];
    return true;
  };
  auto malformed = [](const std::string& what) {
    return invalid_argument("decode_config: " + what);
  };
  // A slice of the next `count` words; the caller bounds count first.
  auto slice = [&](std::int64_t count) {
    const auto b = words.begin() + static_cast<std::ptrdiff_t>(pos);
    pos += static_cast<std::size_t>(count);
    return std::span<const std::int64_t>(b, static_cast<std::size_t>(count));
  };

  std::int64_t proc_count = 0;
  if (!take(&proc_count)) return malformed("missing process count");
  // Each process record takes at least 4 words.
  if (proc_count < 0 || static_cast<std::uint64_t>(proc_count) > left() / 4) {
    return malformed("implausible process count " +
                     std::to_string(proc_count));
  }
  out->procs.resize(static_cast<std::size_t>(proc_count));
  for (ProcessState& ps : out->procs) {
    std::int64_t status = 0;
    std::int64_t local_count = 0;
    if (!take(&status) || !take(&ps.decision) || !take(&ps.pc) ||
        !take(&local_count)) {
      return malformed("truncated process state");
    }
    if (status < 0 || status > static_cast<std::int64_t>(ProcStatus::kCrashed)) {
      return malformed("bad process status " + std::to_string(status));
    }
    ps.status = static_cast<ProcStatus>(status);
    if (local_count < 0 || static_cast<std::uint64_t>(local_count) > left()) {
      return malformed("bad locals count " + std::to_string(local_count));
    }
    const auto locals = slice(local_count);
    ps.locals.assign(locals.begin(), locals.end());
  }
  std::int64_t object_count = 0;
  if (!take(&object_count)) return malformed("missing object count");
  // Each object takes at least its size word.
  if (object_count < 0 || static_cast<std::uint64_t>(object_count) > left()) {
    return malformed("implausible object count " +
                     std::to_string(object_count));
  }
  out->objects.resize(static_cast<std::size_t>(object_count));
  for (std::vector<std::int64_t>& obj : out->objects) {
    std::int64_t size = 0;
    if (!take(&size)) return malformed("truncated object state");
    if (size < 0 || static_cast<std::uint64_t>(size) > left()) {
      return malformed("bad object state size " + std::to_string(size));
    }
    const auto state = slice(size);
    obj.assign(state.begin(), state.end());
  }
  if (pos != words.size()) return malformed("trailing words");
  return Status::ok();
}

StatusOr<Config> decode_config(std::span<const std::int64_t> words) {
  Config config;
  if (Status s = decode_config_into(words, &config); !s.is_ok()) return s;
  return config;
}

ConfigView::Process ConfigView::proc(int pid) const {
  std::size_t pos = 1;
  for (int p = 0; p < pid; ++p) {
    pos += 4 + static_cast<std::size_t>(words_[pos + 3]);
  }
  Process out;
  out.status = static_cast<ProcStatus>(words_[pos]);
  out.decision = words_[pos + 1];
  out.pc = words_[pos + 2];
  out.locals =
      words_.subspan(pos + 4, static_cast<std::size_t>(words_[pos + 3]));
  return out;
}

int ConfigView::enabled_count() const {
  int count = 0;
  std::size_t pos = 1;
  for (int p = 0; p < process_count(); ++p) {
    if (static_cast<ProcStatus>(words_[pos]) == ProcStatus::kRunning) ++count;
    pos += 4 + static_cast<std::size_t>(words_[pos + 3]);
  }
  return count;
}

Config initial_config(const Protocol& protocol) {
  Config config;
  const int n = protocol.process_count();
  config.procs.resize(static_cast<size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    config.procs[static_cast<size_t>(pid)].locals =
        protocol.initial_locals(pid);
  }
  for (const auto& type : protocol.objects()) {
    config.objects.push_back(type->initial_state());
  }
  return config;
}

std::string Step::to_string(const Protocol& protocol) const {
  std::string out = "p" + std::to_string(pid) + ": ";
  switch (action.kind) {
    case Action::Kind::kDecide:
      return out + "decide(" + value_to_string(action.decision) + ")";
    case Action::Kind::kAbort:
      return out + "abort";
    case Action::Kind::kInvoke: {
      const auto& type =
          *protocol.objects()[static_cast<size_t>(action.object_index)];
      out += type.name() + "#" + std::to_string(action.object_index) + "." +
             type.operation_to_string(action.op) + " -> " +
             value_to_string(response);
      if (outcome_choice != 0) {
        out += " [choice " + std::to_string(outcome_choice) + "]";
      }
      return out;
    }
  }
  return out + "?";
}

namespace {

// Shared core: enumerate the outcomes of pid's next action from `config`.
// For each outcome, `emit` is called with the resulting (response, step).
void expand(const Protocol& protocol, const Config& config, int pid,
            std::vector<Successor>* out) {
  LBSA_CHECK_MSG(config.enabled(pid), "stepping a non-running process");
  const ProcessState& ps = config.procs[static_cast<size_t>(pid)];
  const Action action = protocol.next_action(pid, ps);

  if (action.kind == Action::Kind::kDecide ||
      action.kind == Action::Kind::kAbort) {
    Successor succ{config, Step{pid, action, kNil, 0}};
    ProcessState& nps = succ.config.procs[static_cast<size_t>(pid)];
    if (action.kind == Action::Kind::kDecide) {
      nps.status = ProcStatus::kDecided;
      nps.decision = action.decision;
    } else {
      nps.status = ProcStatus::kAborted;
    }
    out->push_back(std::move(succ));
    return;
  }

  LBSA_CHECK(action.object_index >= 0 &&
             static_cast<size_t>(action.object_index) <
                 config.objects.size());
  const spec::ObjectType& type =
      *protocol.objects()[static_cast<size_t>(action.object_index)];
  const Status valid = type.validate(action.op);
  LBSA_CHECK_MSG(valid.is_ok(), valid.to_string().c_str());

  std::vector<spec::Outcome> outcomes;
  type.apply(config.objects[static_cast<size_t>(action.object_index)],
             action.op, &outcomes);
  LBSA_CHECK(!outcomes.empty());

  for (size_t choice = 0; choice < outcomes.size(); ++choice) {
    Successor succ{config,
                   Step{pid, action, outcomes[choice].response,
                        static_cast<int>(choice)}};
    succ.config.objects[static_cast<size_t>(action.object_index)] =
        std::move(outcomes[choice].next_state);
    protocol.on_response(pid, &succ.config.procs[static_cast<size_t>(pid)],
                         outcomes[choice].response);
    out->push_back(std::move(succ));
  }
}

}  // namespace

void enumerate_successors(const Protocol& protocol, const Config& config,
                          int pid, std::vector<Successor>* out) {
  expand(protocol, config, pid, out);
}

Step apply_step(const Protocol& protocol, Config* config, int pid,
                int outcome_choice) {
  std::vector<Successor> succs;
  expand(protocol, *config, pid, &succs);
  LBSA_CHECK_MSG(outcome_choice >= 0 &&
                     static_cast<size_t>(outcome_choice) < succs.size(),
                 "outcome_choice out of range");
  *config = std::move(succs[static_cast<size_t>(outcome_choice)].config);
  return succs[static_cast<size_t>(outcome_choice)].step;
}

int outcome_count(const Protocol& protocol, const Config& config, int pid) {
  std::vector<Successor> succs;
  expand(protocol, config, pid, &succs);
  return static_cast<int>(succs.size());
}

}  // namespace lbsa::sim
