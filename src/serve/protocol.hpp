// Line-delimited JSON request/response protocol for the conversion
// service.
//
// One request per line, one response line per request, over any byte
// transport (Unix/TCP socket or job files in a drop directory — see
// server.hpp). Six job types:
//
//   {"id":"j1","type":"convert","benchmark":"s5378","backend":"3p",
//    "preset":"fast","workload":"paper","cycles":48,"seed":7,"lanes":4}
//   {"id":"j2","type":"power_eval", ...same fields...}
//   {"id":"j3","type":"lint", ...same fields...}
//   {"id":"j4","type":"matrix_sweep","benchmarks":["s5378","s9234"],
//    "backends":["ff","3p"],"preset":"paper", ...}
//   {"id":"j5","type":"status"}
//   {"id":"j6","type":"shutdown"}
//
// "backend" names a registered conversion backend by its token (the
// backend registry of src/flow/backend.hpp is the source of truth; status
// lists the valid tokens). An unknown token is rejected with an ok:false
// response whose error message lists every valid token; so is a request
// that still carries the retired "style"/"styles" fields, naming
// "backend"/"backends" instead.
//
// Responses echo the id:
//   {"id":"j1","ok":true,"cached":false,"payload":{...}}        convert
//   {"id":"j2","ok":true,"cached":true,"payload":{...power...}} power_eval
//   {"id":"j3","ok":true,"cached":false,"payload":{...lint...}} lint
//   {"id":"j4","ok":true,"cached":false,"cells":N,"cached_cells":M,
//    "payload":[{...}, ...]}                                    sweep
//   {"id":"j5","ok":true,"status":{...counters...}}             status
//   {"id":"jX","ok":false,"error":"..."}                        any failure
//
// A lint job forces the per-stage rule checks and dataflow analyses on
// (check_rules + check_analysis) and reduces the cached full payload to
// the lint verdict, so it rides the same cache-first wave path as
// power_eval: a convert with checks on fills the cache entry a later lint
// answers from, and vice versa.
//
// Field defaults: preset "paper", workload "paper", cycles 96, seed 7,
// lanes 1, check_rules and check_analysis false. Unknown fields are
// ignored; a malformed
// line or an unknown type/enum value produces an ok:false response, never
// a dropped connection or a crash. Every field that affects results is
// part of the cache key, so two requests share a cache entry iff they
// request the same computation.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/flow/matrix.hpp"

namespace tp::serve {

enum class JobType {
  kConvert,
  kPowerEval,
  kLint,
  kMatrixSweep,
  kStatus,
  kShutdown,
};

std::string_view job_type_name(JobType type);

/// Shared knobs of one conversion computation; the unit the cache keys on.
struct JobSpec {
  std::string preset = "paper";    // FlowOptions preset name
  std::string workload = "paper";  // stimulus workload name
  std::uint64_t cycles = 96;
  std::uint64_t seed = 7;
  std::uint64_t lanes = 1;
  bool check_rules = false;     // lint checkpoints (part of the cache key)
  bool check_analysis = false;  // dataflow-analysis checkpoints (cache key)
};

struct Request {
  std::string id;  // client-chosen correlation id, echoed back
  JobType type = JobType::kStatus;
  JobSpec spec;
  // convert / power_eval: exactly one benchmark and style.
  std::string benchmark;
  flow::DesignStyle style = flow::DesignStyle::kThreePhase;
  // matrix_sweep: the grid (empty benchmarks = every built-in).
  std::vector<std::string> benchmarks;
  std::vector<flow::DesignStyle> styles;
};

/// Parses one request line. On failure returns false and sets *error to a
/// client-facing message; *out keeps whatever id could be recovered so the
/// error response can still be correlated.
bool parse_request(std::string_view line, Request* out, std::string* error);

/// Serializes a request back to its wire form (load generator, job-file
/// writers, tests).
std::string request_to_json(const Request& request);

/// Response builders. `payload` must already be JSON (it is spliced raw).
std::string ok_response(std::string_view id, bool cached,
                        std::string_view payload_json);
std::string sweep_response(std::string_view id, std::size_t cells,
                           std::size_t cached_cells,
                           std::string_view payload_array_json);
std::string status_response(std::string_view id,
                            std::string_view status_object_json);
std::string error_response(std::string_view id, std::string_view message);

/// Reduces a full convert payload to the power_eval payload: identity
/// fields plus the power breakdown. Deterministic bytes-to-bytes, so the
/// cache can store only full payloads and still serve byte-identical
/// power_eval responses.
std::string power_payload(std::string_view full_payload_json);

/// Reduces a full convert payload to the lint payload: identity fields
/// plus the per-stage lint verdict (lint_clean, lint_stages,
/// lint_first_violation) and the clock/reset-domain summary ("domains").
/// Deterministic bytes-to-bytes like power_payload().
std::string lint_payload(std::string_view full_payload_json);

}  // namespace tp::serve
