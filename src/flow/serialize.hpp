// Deterministic serialization of flow results and options — the byte layer
// under the serving protocol and the content-addressed result cache.
//
// Three jobs:
//  - canonical short names for DesignStyle and presets, shared by the CLIs
//    and the protocol (previously each CLI hand-rolled its own table);
//  - options_fingerprint(): a canonical text rendering of every
//    result-affecting FlowOptions field, hashed into the cache key so two
//    requests share a cache entry iff their flows are configured
//    identically (wall-clock-only switches like `incremental_timing` are
//    excluded);
//  - result_payload_json(): the JSON payload describing one MatrixResult.
//    Deterministic by construction — it contains no wall-clock fields and
//    is produced by the same JsonWriter code on every path, so a cache hit
//    serves bytes identical to a fresh recompute of the same request.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/flow/backend.hpp"
#include "src/flow/matrix.hpp"

namespace tp::flow {

/// Parses the short backend tokens used everywhere ("ff", "ms", "3p", "pl",
/// "2p", "det"). Resolved through the backend registry
/// (src/flow/backend.hpp), so new backends are parseable the moment they
/// are registered.
bool style_from_name(std::string_view text, DesignStyle* style);

/// Short backend token for the protocol/CLIs (ConversionBackend::token) —
/// style_name() returns the long human-readable form.
std::string_view style_token(DesignStyle style);

/// Parses a FlowOptions preset name: "paper", "fast", or "no-gating".
bool options_from_preset(std::string_view name, FlowOptions* options);

/// Parses a workload name as used by the CLIs/protocol.
bool workload_from_name(std::string_view text, circuits::Workload* workload);

/// Canonical text rendering of the result-affecting FlowOptions fields.
std::string options_fingerprint(const FlowOptions& options);

/// FNV-1a of options_fingerprint() — the options component of a cache key.
std::uint64_t options_hash(const FlowOptions& options);

/// JSON object describing one completed MatrixResult: identity (benchmark,
/// style, seed, lanes, cycles, workload), Table I/II metrics, structural
/// detail counts, the output-stream fingerprint, and check verdicts.
/// No timing/wall-clock fields — the payload is a pure function of the
/// deterministic flow outputs.
std::string result_payload_json(const RunPlan& plan,
                                const MatrixResult& result);

}  // namespace tp::flow
