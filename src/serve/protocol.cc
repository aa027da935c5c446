#include "serve/protocol.h"

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "modelcheck/explorer.h"
#include "obs/json.h"

namespace lbsa::serve {
namespace {

using obs::JsonValue;

Status bad(std::string_view what) {
  return invalid_argument("serve request: " + std::string(what));
}

// Typed field readers; each rejects wrong-typed values loudly rather than
// falling back to a default (a silently coerced knob is a debugging trap).
Status read_string(const JsonValue& v, std::string_view key,
                   std::string* out) {
  if (!v.is_string()) {
    return bad("\"" + std::string(key) + "\" must be a string");
  }
  *out = v.string_value;
  return Status::ok();
}

Status read_uint(const JsonValue& v, std::string_view key,
                 std::uint64_t* out) {
  if (!v.is_number() || !v.number_is_integer || v.int_value < 0) {
    return bad("\"" + std::string(key) + "\" must be a non-negative integer");
  }
  *out = static_cast<std::uint64_t>(v.int_value);
  return Status::ok();
}

Status read_int(const JsonValue& v, std::string_view key, int* out,
                int min = std::numeric_limits<int>::min(),
                int max = std::numeric_limits<int>::max()) {
  if (!v.is_number() || !v.number_is_integer || v.int_value < min ||
      v.int_value > max) {
    return bad("\"" + std::string(key) + "\" must be an integer in [" +
               std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  *out = static_cast<int>(v.int_value);
  return Status::ok();
}

Status read_bool(const JsonValue& v, std::string_view key, bool* out) {
  if (v.kind != JsonValue::Kind::kBool) {
    return bad("\"" + std::string(key) + "\" must be a boolean");
  }
  *out = v.bool_value;
  return Status::ok();
}

bool op_takes_graph_knobs(const std::string& op) {
  return op == "check" || op == "explore";
}

}  // namespace

StatusOr<ServeRequest> parse_request(std::string_view line) {
  auto doc_or = obs::parse_json(line);
  if (!doc_or.is_ok()) {
    return invalid_argument("serve request: " +
                            doc_or.status().to_string());
  }
  const JsonValue& doc = doc_or.value();
  if (!doc.is_object()) return bad("top level must be an object");

  // Two passes: find the op first (it decides which knobs are legal), then
  // read every member strictly — an unknown or op-inapplicable key is an
  // error, never a silent default.
  const JsonValue* op_value = doc.find("op");
  if (op_value == nullptr) return bad("missing \"op\"");
  ServeRequest req;
  if (Status s = read_string(*op_value, "op", &req.op); !s.is_ok()) return s;
  if (req.op != "check" && req.op != "explore" && req.op != "fuzz" &&
      req.op != "status" && req.op != "cancel") {
    return bad("unknown op \"" + req.op +
               "\" (want check|explore|fuzz|status|cancel)");
  }

  bool saw_version = false;
  for (const auto& [key, value] : doc.members) {
    Status s = Status::ok();
    if (key == "serve_version") {
      saw_version = true;
      std::uint64_t version = 0;
      s = read_uint(value, key, &version);
      if (s.is_ok() && version != kServeSchemaVersion) {
        s = bad("serve_version " + std::to_string(version) +
                " unsupported (speak version " +
                std::to_string(kServeSchemaVersion) + ")");
      }
    } else if (key == "op") {
      // Parsed above.
    } else if (key == "id") {
      s = read_string(value, key, &req.id);
    } else if (key == "deadline_ms") {
      s = read_uint(value, key, &req.deadline_ms);
    } else if (key == "heartbeat_ms") {
      s = read_uint(value, key, &req.heartbeat_ms);
    } else if (key == "task" && req.op != "status" && req.op != "cancel") {
      s = read_string(value, key, &req.task);
    } else if (key == "target" && req.op == "cancel") {
      s = read_string(value, key, &req.target);
    } else if (key == "threads" && op_takes_graph_knobs(req.op)) {
      // Each worker is an OS thread: bound the request before it reaches
      // an explorer (which enforces the same range).
      s = read_int(value, key, &req.threads, /*min=*/0,
                   /*max=*/modelcheck::kMaxExploreThreads);
    } else if (key == "engine" && op_takes_graph_knobs(req.op)) {
      s = read_string(value, key, &req.engine);
    } else if (key == "reduction" && op_takes_graph_knobs(req.op)) {
      s = read_string(value, key, &req.reduction);
    } else if (key == "max_nodes" && op_takes_graph_knobs(req.op)) {
      s = read_uint(value, key, &req.max_nodes);
    } else if (key == "allow_truncation" && op_takes_graph_knobs(req.op)) {
      s = read_bool(value, key, &req.allow_truncation);
    } else if (key == "max_levels" && req.op == "explore") {
      s = read_uint(value, key, &req.max_levels);
    } else if (key == "runs" && req.op == "fuzz") {
      s = read_uint(value, key, &req.runs);
    } else if (key == "seed" && req.op == "fuzz") {
      s = read_uint(value, key, &req.seed);
    } else if (key == "coverage" && req.op == "fuzz") {
      s = read_bool(value, key, &req.coverage);
    } else if (key == "stop_after_runs" && req.op == "fuzz") {
      s = read_uint(value, key, &req.stop_after_runs);
    } else if (key == "checkpoint_path" && req.op == "fuzz") {
      s = read_string(value, key, &req.checkpoint_path);
    } else if (key == "solo_node_bound" && req.op == "check") {
      s = read_uint(value, key, &req.solo_node_bound);
    } else if (key == "max_violations" &&
               (req.op == "check" || req.op == "fuzz")) {
      // A report that is full before the first node would certify nothing.
      s = read_int(value, key, &req.max_violations, /*min=*/1);
    } else {
      s = bad("unknown field \"" + key + "\" for op \"" + req.op + "\"");
    }
    if (!s.is_ok()) return s;
  }

  if (!saw_version) return bad("missing \"serve_version\"");
  if (req.id.empty()) return bad("missing \"id\"");
  if (req.task.empty() && req.op != "status" && req.op != "cancel") {
    return bad("op \"" + req.op + "\" needs a \"task\"");
  }
  if (req.op == "cancel" && req.target.empty()) {
    return bad("op \"cancel\" needs a \"target\" request id");
  }
  return req;
}

namespace {

obs::JsonWriter response_head(const std::string& request_id,
                              std::string_view type) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("serve_version");
  w.value_uint(kServeSchemaVersion);
  w.key("request_id");
  w.value_string(request_id);
  w.key("type");
  w.value_string(type);
  return w;
}

}  // namespace

std::string heartbeat_response(const std::string& request_id,
                               std::string_view heartbeat_line) {
  obs::JsonWriter w = response_head(request_id, "heartbeat");
  w.key("data");
  w.value_string(heartbeat_line);
  w.end_object();
  return std::move(w).str();
}

std::string report_response(const std::string& request_id, int exit_code,
                            bool cached, std::string_view human,
                            std::string_view report_json) {
  obs::JsonWriter w = response_head(request_id, "report");
  w.key("exit_code");
  w.value_int(exit_code);
  w.key("cached");
  w.value_bool(cached);
  w.key("human");
  w.value_string(human);
  w.key("report");
  w.value_string(report_json);
  w.end_object();
  return std::move(w).str();
}

std::string error_response(const std::string& request_id,
                           const Status& status) {
  obs::JsonWriter w = response_head(request_id, "error");
  w.key("status");
  w.value_string(status_code_name(status.code()));
  w.key("message");
  w.value_string(status.message());
  w.end_object();
  return std::move(w).str();
}

std::string cancel_ack_response(const std::string& request_id,
                                const std::string& target, bool found) {
  obs::JsonWriter w = response_head(request_id, "cancel_ack");
  w.key("target");
  w.value_string(target);
  w.key("found");
  w.value_bool(found);
  w.end_object();
  return std::move(w).str();
}

std::string status_response(const std::string& request_id,
                            std::string_view stats_json) {
  obs::JsonWriter w = response_head(request_id, "status");
  w.key("stats");
  w.value_string(stats_json);
  w.end_object();
  return std::move(w).str();
}

StatusOr<ServeResponse> parse_response(std::string_view line) {
  auto doc_or = obs::parse_json(line);
  if (!doc_or.is_ok()) {
    return invalid_argument("serve response: " +
                            doc_or.status().to_string());
  }
  const JsonValue& doc = doc_or.value();
  if (!doc.is_object()) {
    return invalid_argument("serve response: top level must be an object");
  }
  auto need_string = [&](const char* key, std::string* out) -> Status {
    const JsonValue* v = doc.find(key);
    if (v == nullptr || !v->is_string()) {
      return invalid_argument(std::string("serve response: missing string \"") +
                              key + "\"");
    }
    *out = v->string_value;
    return Status::ok();
  };

  const JsonValue* version = doc.find("serve_version");
  if (version == nullptr || !version->is_number() ||
      !version->number_is_integer ||
      version->int_value != kServeSchemaVersion) {
    return invalid_argument("serve response: bad serve_version");
  }
  ServeResponse resp;
  if (Status s = need_string("request_id", &resp.request_id); !s.is_ok()) {
    return s;
  }
  if (Status s = need_string("type", &resp.type); !s.is_ok()) return s;

  if (resp.type == "heartbeat") {
    return need_string("data", &resp.data).is_ok()
               ? StatusOr<ServeResponse>(std::move(resp))
               : invalid_argument("serve response: heartbeat needs \"data\"");
  }
  if (resp.type == "report") {
    const JsonValue* exit_code = doc.find("exit_code");
    const JsonValue* cached = doc.find("cached");
    if (exit_code == nullptr || !exit_code->is_number() ||
        !exit_code->number_is_integer || cached == nullptr ||
        cached->kind != JsonValue::Kind::kBool) {
      return invalid_argument(
          "serve response: report needs integer \"exit_code\" and boolean "
          "\"cached\"");
    }
    resp.exit_code = static_cast<int>(exit_code->int_value);
    resp.cached = cached->bool_value;
    if (Status s = need_string("human", &resp.human); !s.is_ok()) return s;
    if (Status s = need_string("report", &resp.data); !s.is_ok()) return s;
    return resp;
  }
  if (resp.type == "error") {
    if (Status s = need_string("status", &resp.status_code); !s.is_ok()) {
      return s;
    }
    if (Status s = need_string("message", &resp.message); !s.is_ok()) {
      return s;
    }
    return resp;
  }
  if (resp.type == "cancel_ack") {
    if (Status s = need_string("target", &resp.target); !s.is_ok()) return s;
    const JsonValue* found = doc.find("found");
    if (found == nullptr || found->kind != JsonValue::Kind::kBool) {
      return invalid_argument(
          "serve response: cancel_ack needs boolean \"found\"");
    }
    resp.found = found->bool_value;
    return resp;
  }
  if (resp.type == "status") {
    if (Status s = need_string("stats", &resp.data); !s.is_ok()) return s;
    return resp;
  }
  return invalid_argument("serve response: unknown type \"" + resp.type +
                          "\"");
}

}  // namespace lbsa::serve
