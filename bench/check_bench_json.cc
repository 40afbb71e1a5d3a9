// Validates the JSON files the benchmarks emit in --json mode, so the
// bench-smoke CI job fails on malformed or truncated output instead of
// archiving it silently. Two formats are accepted:
//
//   * BENCH_<name>.json       — google benchmark's --benchmark_out format:
//                               an object with a "context" object and a
//                               "benchmarks" array whose entries carry a
//                               "name" and a numeric "real_time".
//   * BENCH_<name>_stats.json — an ExecStats::ToJson sidecar: schema
//                               marker "hql-exec-stats/v1", the counter
//                               fields as numbers, a "route" string and a
//                               "spans" array.
//
// Usage: check_bench_json FILE...   (exits non-zero on the first failure)

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace hql {
namespace {

constexpr const char* kStatsCounters[] = {
    "memo_hits",
    "memo_misses",
    "plan_cache_hits",
    "plan_cache_misses",
    "views_created",
    "view_consolidations",
    "view_tuples_shared",
    "view_tuples_copied",
    "indexes_built",
    "indexes_shared",
    "index_probes",
    "index_tuples_skipped",
    "governor_deadline_trips",
    "governor_tuple_trips",
    "governor_rewrite_trips",
    "governor_cancellations",
    "governor_lazy_fallbacks",
    "governor_index_fallbacks",
    "governor_max_tuples_charged",
    "governor_max_rewrite_nodes_charged",
    "columnar_batches_built",
    "columnar_batches_reused",
    "columnar_morsels_dispatched",
    "columnar_rows_vectorized",
    "columnar_rows_fallback",
    "columnar_agg_rows_vectorized",
    "columnar_agg_groups",
    "columnar_when_routed",
    "incremental_results_patched",
    "incremental_edits_propagated",
    "incremental_fallbacks",
};

Status CheckStatsSidecar(const JsonPtr& root) {
  for (const char* key : kStatsCounters) {
    JsonPtr field = root->Get(key);
    if (field == nullptr || !field->is_number()) {
      return Status::InvalidArgument(std::string("stats sidecar: missing or "
                                                 "non-numeric counter \"") +
                                     key + "\"");
    }
    if (field->number() < 0) {
      return Status::InvalidArgument(std::string("stats sidecar: negative "
                                                 "counter \"") +
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
