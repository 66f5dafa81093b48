#include "src/serve/protocol.hpp"

#include <utility>

#include "src/flow/serialize.hpp"
#include "src/util/json.hpp"
#include "src/util/strcat.hpp"

namespace tp::serve {

using util::Json;
using util::JsonWriter;

std::string_view job_type_name(JobType type) {
  switch (type) {
    case JobType::kConvert: return "convert";
    case JobType::kPowerEval: return "power_eval";
    case JobType::kLint: return "lint";
    case JobType::kMatrixSweep: return "matrix_sweep";
    case JobType::kStatus: return "status";
    case JobType::kShutdown: return "shutdown";
  }
  return "status";
}

namespace {

bool job_type_from_name(std::string_view name, JobType* out) {
  if (name == "convert") *out = JobType::kConvert;
  else if (name == "power_eval") *out = JobType::kPowerEval;
  else if (name == "lint") *out = JobType::kLint;
  else if (name == "matrix_sweep") *out = JobType::kMatrixSweep;
  else if (name == "status") *out = JobType::kStatus;
  else if (name == "shutdown") *out = JobType::kShutdown;
  else return false;
  return true;
}

bool parse_spec(const Json& doc, JobSpec* spec, std::string* error) {
  spec->preset = doc.get_string("preset", spec->preset);
  spec->workload = doc.get_string("workload", spec->workload);
  spec->cycles = doc.get_u64("cycles", spec->cycles);
  spec->seed = doc.get_u64("seed", spec->seed);
  spec->lanes = doc.get_u64("lanes", spec->lanes);
  spec->check_rules = doc.get_bool("check_rules", spec->check_rules);
  spec->check_analysis =
      doc.get_bool("check_analysis", spec->check_analysis);

  flow::FlowOptions options;
  if (!flow::options_from_preset(spec->preset, &options)) {
    *error = cat("unknown preset '", spec->preset, "'");
    return false;
  }
  circuits::Workload workload;
  if (!flow::workload_from_name(spec->workload, &workload)) {
    *error = cat("unknown workload '", spec->workload, "'");
    return false;
  }
  if (spec->lanes < 1 || spec->lanes > kMaxSimLanes) {
    *error = cat("lanes must be in [1, ", kMaxSimLanes, "]");
    return false;
  }
  if (spec->cycles < 1 || spec->cycles > 1u << 20) {
    *error = "cycles must be in [1, 1048576]";
    return false;
  }
  return true;
}

}  // namespace

bool parse_request(std::string_view line, Request* out, std::string* error) {
  *out = Request();
  Json doc;
  if (!Json::parse(line, &doc, error)) return false;
  if (!doc.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  out->id = doc.get_string("id", "");
  const std::string type_name = doc.get_string("type", "");
  if (!job_type_from_name(type_name, &out->type)) {
    *error = cat("unknown job type '", type_name, "'");
    return false;
  }
  if (out->type == JobType::kStatus || out->type == JobType::kShutdown) {
    return true;
  }
  // Retired field names: ignoring them would silently run the default
  // backends instead of the ones the client asked for.
  for (const auto& [retired, field] :
       {std::pair{"style", "backend"}, std::pair{"styles", "backends"}}) {
    if (doc.find(retired) != nullptr) {
      *error = cat("field '", retired, "' is no longer accepted; use '",
                   field, "' (valid backends: ", flow::backend_token_list(),
                   ")");
      return false;
    }
  }
  if (!parse_spec(doc, &out->spec, error)) return false;

  if (out->type == JobType::kMatrixSweep) {
    if (const Json* names = doc.find("benchmarks");
        names != nullptr && names->is_array()) {
      for (const Json& name : names->items()) {
        if (!name.is_string()) {
          *error = "benchmarks must be an array of strings";
          return false;
        }
        out->benchmarks.push_back(name.as_string());
      }
    }
    const Json* tokens = doc.find("backends");
    if (tokens != nullptr && tokens->is_array()) {
      for (const Json& token : tokens->items()) {
        flow::DesignStyle style;
        if (!token.is_string() ||
            !flow::style_from_name(token.as_string(), &style)) {
          *error = cat("backends must be an array of backend tokens (",
                       flow::backend_token_list(), ")");
          return false;
        }
        out->styles.push_back(style);
      }
    }
    if (out->styles.empty()) {
      out->styles = {flow::DesignStyle::kFlipFlop,
                     flow::DesignStyle::kMasterSlave,
                     flow::DesignStyle::kThreePhase};
    }
    return true;
  }

  // convert / power_eval / lint: one benchmark, one backend.
  out->benchmark = doc.get_string("benchmark", "");
  if (out->benchmark.empty()) {
    *error = "missing benchmark";
    return false;
  }
  const std::string token = doc.get_string("backend", "3p");
  if (!flow::style_from_name(token, &out->style)) {
    *error = cat("unknown backend '", token, "' (valid backends: ",
                 flow::backend_token_list(), ")");
    return false;
  }
  return true;
}

std::string request_to_json(const Request& request) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(request.id);
  w.key("type").value(job_type_name(request.type));
  if (request.type == JobType::kStatus ||
      request.type == JobType::kShutdown) {
    w.end_object();
    return w.take();
  }
  if (request.type == JobType::kMatrixSweep) {
    w.key("benchmarks").begin_array();
    for (const std::string& name : request.benchmarks) w.value(name);
    w.end_array();
    w.key("backends").begin_array();
    for (const flow::DesignStyle style : request.styles) {
      w.value(flow::style_token(style));
    }
    w.end_array();
  } else {
    w.key("benchmark").value(request.benchmark);
    w.key("backend").value(flow::style_token(request.style));
  }
  w.key("preset").value(request.spec.preset);
  w.key("workload").value(request.spec.workload);
  w.key("cycles").value(request.spec.cycles);
  w.key("seed").value(request.spec.seed);
  w.key("lanes").value(request.spec.lanes);
  if (request.spec.check_rules) w.key("check_rules").value(true);
  if (request.spec.check_analysis) w.key("check_analysis").value(true);
  w.end_object();
  return w.take();
}

std::string ok_response(std::string_view id, bool cached,
                        std::string_view payload_json) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(true);
  w.key("cached").value(cached);
  w.key("payload").raw(payload_json);
  w.end_object();
  return w.take();
}

std::string sweep_response(std::string_view id, std::size_t cells,
                           std::size_t cached_cells,
                           std::string_view payload_array_json) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(true);
  w.key("cached").value(cells > 0 && cached_cells == cells);
  w.key("cells").value(cells);
  w.key("cached_cells").value(cached_cells);
  w.key("payload").raw(payload_array_json);
  w.end_object();
  return w.take();
}

std::string status_response(std::string_view id,
                            std::string_view status_object_json) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(true);
  w.key("status").raw(status_object_json);
  w.end_object();
  return w.take();
}

std::string error_response(std::string_view id, std::string_view message) {
  JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("ok").value(false);
  w.key("error").value(message);
  w.end_object();
  return w.take();
}

std::string power_payload(std::string_view full_payload_json) {
  Json full;
  std::string error;
  if (!Json::parse(full_payload_json, &full, &error) || !full.is_object()) {
    return std::string(full_payload_json);  // pass through, caller guards
  }
  JsonWriter w;
  w.begin_object();
  for (const char* key : {"benchmark", "style", "workload", "seed"}) {
    if (const Json* member = full.find(key);
        member != nullptr && member->is_string()) {
      w.key(key).value(member->as_string());
    }
  }
  for (const char* key : {"cycles", "lanes"}) {
    if (const Json* member = full.find(key);
        member != nullptr && member->is_number()) {
      w.key(key).value(
          static_cast<std::uint64_t>(member->as_number()));
    }
  }
  if (const Json* ok = full.find("ok"); ok != nullptr && ok->is_bool()) {
    w.key("ok").value(ok->as_bool());
  }
  if (const Json* err = full.find("error");
      err != nullptr && err->is_string()) {
    w.key("error").value(err->as_string());
  }
  if (const Json* power = full.find("power_mw");
      power != nullptr && power->is_object()) {
    w.key("power_mw").begin_object();
    for (const auto& [name, value] : power->members()) {
      if (value.is_number()) w.key(name).value(value.as_number());
    }
    w.end_object();
  }
  w.end_object();
  return w.take();
}

namespace {

/// Re-serializes a parsed Json value; member order is preserved by the
/// parser, so copying a cached payload's subtree stays byte-deterministic.
void write_json(JsonWriter& w, const Json& value) {
  switch (value.type()) {
    case Json::Type::kNull: w.null(); break;
    case Json::Type::kBool: w.value(value.as_bool()); break;
    case Json::Type::kNumber: w.value(value.as_number()); break;
    case Json::Type::kString: w.value(value.as_string()); break;
    case Json::Type::kArray:
      w.begin_array();
      for (const Json& item : value.items()) write_json(w, item);
      w.end_array();
      break;
    case Json::Type::kObject:
      w.begin_object();
      for (const auto& [name, member] : value.members()) {
        w.key(name);
        write_json(w, member);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string lint_payload(std::string_view full_payload_json) {
  Json full;
  std::string error;
  if (!Json::parse(full_payload_json, &full, &error) || !full.is_object()) {
    return std::string(full_payload_json);  // pass through, caller guards
  }
  JsonWriter w;
  w.begin_object();
  for (const char* key : {"benchmark", "style", "workload", "seed"}) {
    if (const Json* member = full.find(key);
        member != nullptr && member->is_string()) {
      w.key(key).value(member->as_string());
    }
  }
  if (const Json* ok = full.find("ok"); ok != nullptr && ok->is_bool()) {
    w.key("ok").value(ok->as_bool());
  }
  if (const Json* err = full.find("error");
      err != nullptr && err->is_string()) {
    w.key("error").value(err->as_string());
  }
  for (const char* key :
       {"lint_clean", "lint_stages", "lint_first_violation", "domains"}) {
    if (const Json* member = full.find(key); member != nullptr) {
      w.key(key);
      write_json(w, *member);
    }
  }
  w.end_object();
  return w.take();
}

}  // namespace tp::serve
