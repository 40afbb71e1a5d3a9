// Validates the JSON files the benchmarks emit in --json mode, so the
// bench-smoke CI job fails on malformed or truncated output instead of
// archiving it silently. Two formats are accepted:
//
//   * BENCH_<name>.json       — google benchmark's --benchmark_out format:
//                               an object with a "context" object and a
//                               "benchmarks" array whose entries carry a
//                               "name" and a numeric "real_time".
//   * BENCH_<name>_stats.json — an ExecStats::ToJson sidecar: schema
//                               marker "hql-exec-stats/v1", exactly the
//                               counters of HQL_EXEC_COUNTERS as numbers
//                               (no extra or stale keys), a "route" string
//                               and a "spans" array.
//
// Usage: check_bench_json FILE...   (exits non-zero on the first failure)

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/exec_context.h"
#include "common/json.h"

namespace hql {
namespace {

Status CheckStatsSidecar(const JsonPtr& root) {
  for (const ExecCounterInfo& c : kExecCounters) {
    JsonPtr field = root->Get(c.key);
    if (field == nullptr || !field->is_number()) {
      return Status::InvalidArgument(std::string("stats sidecar: missing or "
                                                 "non-numeric counter \"") +
                                     c.key + "\"");
    }
    if (field->number() < 0) {
      return Status::InvalidArgument(std::string("stats sidecar: negative "
                                                 "counter \"") +
                                     c.key + "\"");
    }
  }
  // The counter keys are exactly the list: an extra or stale key fails.
  for (const auto& [key, value] : root->fields()) {
    bool known = key == "schema" || key == "route" || key == "spans";
    for (const ExecCounterInfo& c : kExecCounters) known |= key == c.key;
    if (!known) {
      return Status::InvalidArgument("stats sidecar: unknown counter \"" +
                                     key + "\"");
    }
  }
  JsonPtr route = root->Get("route");
  if (route == nullptr || !route->is_string()) {
    return Status::InvalidArgument("stats sidecar: missing \"route\" string");
  }
  JsonPtr spans = root->Get("spans");
  if (spans == nullptr || !spans->is_array()) {
    return Status::InvalidArgument("stats sidecar: missing \"spans\" array");
  }
  for (const JsonPtr& span : spans->items()) {
    if (!span->is_object() || span->Get("op") == nullptr ||
        !span->Get("op")->is_string() || span->Get("micros") == nullptr ||
        !span->Get("micros")->is_number()) {
      return Status::InvalidArgument(
          "stats sidecar: span without string \"op\" and numeric \"micros\"");
    }
  }
  return Status::OK();
}

Status CheckBenchmarkReport(const JsonPtr& root) {
  JsonPtr context = root->Get("context");
  if (context == nullptr || !context->is_object()) {
    return Status::InvalidArgument(
        "benchmark report: missing \"context\" object");
  }
  JsonPtr benchmarks = root->Get("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument(
        "benchmark report: missing \"benchmarks\" array");
  }
  if (benchmarks->items().empty()) {
    return Status::InvalidArgument(
        "benchmark report: \"benchmarks\" array is empty — the run "
        "produced no measurements");
  }
  for (const JsonPtr& row : benchmarks->items()) {
    if (!row->is_object() || row->Get("name") == nullptr ||
        !row->Get("name")->is_string()) {
      return Status::InvalidArgument(
          "benchmark report: entry without a string \"name\"");
    }
    // Aggregate rows report e.g. real_time too; error rows carry
    // "error_occurred" instead and are accepted (the smoke job only
    // asserts well-formedness, not success of every row).
    if (row->Get("real_time") == nullptr &&
        row->Get("error_occurred") == nullptr) {
      return Status::InvalidArgument(
          "benchmark report: entry \"" + row->Get("name")->string_value() +
          "\" has neither \"real_time\" nor \"error_occurred\"");
    }
  }
  return Status::OK();
}

Status CheckFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<JsonPtr> parsed = ParseJson(buf.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   parsed.status().ToString());
  }
  const JsonPtr& root = parsed.value();
  if (!root->is_object()) {
    return Status::InvalidArgument(path + ": top level is not an object");
  }
  JsonPtr schema = root->Get("schema");
  Status status =
      schema != nullptr && schema->is_string() &&
              schema->string_value() == "hql-exec-stats/v1"
          ? CheckStatsSidecar(root)
          : CheckBenchmarkReport(root);
  if (!status.ok()) {
    return Status::InvalidArgument(path + ": " + status.ToString());
  }
  return Status::OK();
}

}  // namespace
}  // namespace hql

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s FILE...\n", argv[0]);
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    hql::Status status = hql::CheckFile(argv[i]);
    if (!status.ok()) {
      std::fprintf(stderr, "check_bench_json: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("ok: %s\n", argv[i]);
  }
  return 0;
}
