// Wire protocol for lbsa_serverd (docs/serving.md): newline-delimited
// strict JSON in both directions over a local stream socket.
//
// Request line:
//   {"serve_version":1,"op":"check"|"explore"|"fuzz"|"status"|"cancel",
//    "id":"<client-chosen request id>", "task":"<named-task key>",
//    "deadline_ms":N, "heartbeat_ms":N, ...op-specific knobs...}
//
// The request id doubles as the heartbeat run-id nonce (derive_run_id's
// nonce component), so two concurrent requests for the same (task, budget)
// stream under distinct run_ids; a client resuming the same logical request
// reuses the id and gets the same run_id back.
//
// Response lines (every line carries serve_version, request_id, type):
//   {"type":"heartbeat","data":"<json-escaped heartbeat line>"}
//   {"type":"report","exit_code":N,"cached":B,"human":"...",
//    "report":"<json-escaped RunReport JSON>"}
//   {"type":"error","status":"invalid_argument","message":"..."}
//   {"type":"status","stats":"<json-escaped stats object>"}   (op = status)
//   {"type":"cancel_ack","target":"...","found":B}   (op = cancel)
//
// Heartbeat lines and RunReports travel as JSON-escaped strings, not nested
// objects: unescaping recovers the producer's exact bytes, so clients can
// run validate_heartbeat_stream / validate_run_report_json and compare
// digests without a re-serialization step in between.
#ifndef LBSA_SERVE_PROTOCOL_H_
#define LBSA_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "base/status.h"

namespace lbsa::serve {

inline constexpr int kServeSchemaVersion = 1;

// Bound on deadline_ms and heartbeat_ms (one year): steady_clock arithmetic
// in nanoseconds overflows from about 9.2e12 ms.
inline constexpr std::uint64_t kMaxRequestDurationMs = 365ull * 86'400'000;

// One parsed request. Field defaults mirror the CLI defaults; `op` decides
// which knobs are read.
struct ServeRequest {
  std::string op;      // check | explore | fuzz | status | cancel
  std::string id;      // echoed on every response line; heartbeat nonce
  std::string task;    // named-task key (check/explore/fuzz)
  std::string target;  // cancel: the in-flight request id to cancel

  std::uint64_t deadline_ms = 0;   // 0 = no deadline (from receipt time)
  std::uint64_t heartbeat_ms = 0;  // 0 = no heartbeat stream

  // explore / check
  int threads = 1;  // [0, modelcheck::kMaxExploreThreads]; 0 = all cores
  std::string engine = "auto";
  std::string reduction = "none";
  std::uint64_t max_nodes = 0;  // 0 = engine default
  bool allow_truncation = false;
  std::uint64_t max_levels = 0;  // explore only; [0, UINT32_MAX]

  // fuzz
  std::uint64_t runs = 2000;
  std::uint64_t seed = 1;
  bool coverage = false;
  std::uint64_t stop_after_runs = 0;
  std::string checkpoint_path;  // rejected for blind fuzz (INVALID_ARGUMENT)

  // check
  std::uint64_t solo_node_bound = 100'000;
  int max_violations = 8;
};

// Parses one request line. INVALID_ARGUMENT on malformed JSON, unknown op,
// unknown field (strict: typos must not silently fall back to defaults),
// bad serve_version, or a missing id/task/target the op requires.
StatusOr<ServeRequest> parse_request(std::string_view line);

// Response builders; each returns one strict-JSON line, no trailing
// newline.
std::string heartbeat_response(const std::string& request_id,
                               std::string_view heartbeat_line);
std::string report_response(const std::string& request_id, int exit_code,
                            bool cached, std::string_view human,
                            std::string_view report_json);
std::string error_response(const std::string& request_id,
                           const Status& status);
std::string cancel_ack_response(const std::string& request_id,
                                const std::string& target, bool found);
std::string status_response(const std::string& request_id,
                            std::string_view stats_json);

// One parsed response (client side: lbsa_client, the e2e tests).
struct ServeResponse {
  std::string request_id;
  std::string type;  // heartbeat | report | error | status | cancel_ack
  // heartbeat: the unescaped heartbeat line. report: the unescaped
  // RunReport JSON. status: the unescaped stats JSON object.
  std::string data;
  std::string human;    // report only
  int exit_code = 0;    // report only
  bool cached = false;  // report only
  std::string status_code;  // error only (Status code name)
  std::string message;      // error only
  std::string target;       // cancel_ack only
  bool found = false;       // cancel_ack only
};

// Parses one response line; INVALID_ARGUMENT names the first violation.
StatusOr<ServeResponse> parse_response(std::string_view line);

}  // namespace lbsa::serve

#endif  // LBSA_SERVE_PROTOCOL_H_
