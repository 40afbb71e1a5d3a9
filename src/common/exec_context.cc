#include "common/exec_context.h"

#include <chrono>
#include <utility>

#include "common/strings.h"

namespace hql {
namespace {

thread_local ExecContext* t_current_context = nullptr;
thread_local const char* t_current_route = "";

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  *out += StrFormat("\"%s\":%llu", key,
                    static_cast<unsigned long long>(value));
}

}  // namespace

void ExecStats::MergeFrom(const ExecStats& other) {
  memo_hits += other.memo_hits;
  memo_misses += other.memo_misses;
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;

  views_created += other.views_created;
  view_consolidations += other.view_consolidations;
  view_tuples_shared += other.view_tuples_shared;
  view_tuples_copied += other.view_tuples_copied;

  indexes_built += other.indexes_built;
  indexes_shared += other.indexes_shared;
  index_probes += other.index_probes;
  index_tuples_skipped += other.index_tuples_skipped;

  governor_deadline_trips += other.governor_deadline_trips;
  governor_tuple_trips += other.governor_tuple_trips;
  governor_rewrite_trips += other.governor_rewrite_trips;
  governor_cancellations += other.governor_cancellations;
  governor_lazy_fallbacks += other.governor_lazy_fallbacks;
  governor_index_fallbacks += other.governor_index_fallbacks;
  if (other.governor_max_tuples_charged > governor_max_tuples_charged) {
    governor_max_tuples_charged = other.governor_max_tuples_charged;
  }
  if (other.governor_max_rewrite_nodes_charged >
      governor_max_rewrite_nodes_charged) {
    governor_max_rewrite_nodes_charged =
        other.governor_max_rewrite_nodes_charged;
  }

  columnar_batches_built += other.columnar_batches_built;
  columnar_batches_reused += other.columnar_batches_reused;
  columnar_morsels_dispatched += other.columnar_morsels_dispatched;
  columnar_rows_vectorized += other.columnar_rows_vectorized;
  columnar_rows_fallback += other.columnar_rows_fallback;
  columnar_agg_rows_vectorized += other.columnar_agg_rows_vectorized;
  columnar_agg_groups += other.columnar_agg_groups;
  columnar_when_routed += other.columnar_when_routed;

  incremental_results_patched += other.incremental_results_patched;
  incremental_edits_propagated += other.incremental_edits_propagated;
  incremental_fallbacks += other.incremental_fallbacks;

  if (route.empty()) route = other.route;
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

std::string ExecStats::ToJson() const {
  std::string out = "{\"schema\":\"hql-exec-stats/v1\"";
  bool first = false;
  AppendField(&out, "memo_hits", memo_hits, &first);
  AppendField(&out, "memo_misses", memo_misses, &first);
  AppendField(&out, "plan_cache_hits", plan_cache_hits, &first);
  AppendField(&out, "plan_cache_misses", plan_cache_misses, &first);
  AppendField(&out, "views_created", views_created, &first);
  AppendField(&out, "view_consolidations", view_consolidations, &first);
  AppendField(&out, "view_tuples_shared", view_tuples_shared, &first);
  AppendField(&out, "view_tuples_copied", view_tuples_copied, &first);
  AppendField(&out, "indexes_built", indexes_built, &first);
  AppendField(&out, "indexes_shared", indexes_shared, &first);
  AppendField(&out, "index_probes", index_probes, &first);
  AppendField(&out, "index_tuples_skipped", index_tuples_skipped, &first);
  AppendField(&out, "governor_deadline_trips", governor_deadline_trips,
              &first);
  AppendField(&out, "governor_tuple_trips", governor_tuple_trips, &first);
  AppendField(&out, "governor_rewrite_trips", governor_rewrite_trips, &first);
  AppendField(&out, "governor_cancellations", governor_cancellations, &first);
  AppendField(&out, "governor_lazy_fallbacks", governor_lazy_fallbacks,
              &first);
  AppendField(&out, "governor_index_fallbacks", governor_index_fallbacks,
              &first);
  AppendField(&out, "governor_max_tuples_charged", governor_max_tuples_charged,
              &first);
  AppendField(&out, "governor_max_rewrite_nodes_charged",
              governor_max_rewrite_nodes_charged, &first);
  AppendField(&out, "columnar_batches_built", columnar_batches_built, &first);
  AppendField(&out, "columnar_batches_reused", columnar_batches_reused,
              &first);
  AppendField(&out, "columnar_morsels_dispatched", columnar_morsels_dispatched,
              &first);
  AppendField(&out, "columnar_rows_vectorized", columnar_rows_vectorized,
              &first);
  AppendField(&out, "columnar_rows_fallback", columnar_rows_fallback, &first);
  AppendField(&out, "columnar_agg_rows_vectorized",
              columnar_agg_rows_vectorized, &first);
  AppendField(&out, "columnar_agg_groups", columnar_agg_groups, &first);
  AppendField(&out, "columnar_when_routed", columnar_when_routed, &first);
  AppendField(&out, "incremental_results_patched", incremental_results_patched,
              &first);
  AppendField(&out, "incremental_edits_propagated",
              incremental_edits_propagated, &first);
  AppendField(&out, "incremental_fallbacks", incremental_fallbacks, &first);
  out += ",\"route\":";
  AppendJsonString(&out, route);
  out += ",\"spans\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const OperatorSpan& span = spans[i];
    if (i > 0) out.push_back(',');
    out += "{\"op\":";
    AppendJsonString(&out, span.op);
    out += ",\"route\":";
    AppendJsonString(&out, span.route);
    out += StrFormat(",\"rows_in\":%llu,\"rows_out\":%llu,\"micros\":%llu}",
                     static_cast<unsigned long long>(span.rows_in),
                     static_cast<unsigned long long>(span.rows_out),
                     static_cast<unsigned long long>(span.micros));
  }
  out += "]}";
  return out;
}

void ExecContext::AddGovernorTrip(GovernorTripKind kind) {
  switch (kind) {
    case GovernorTripKind::kDeadline:
      Bump(&governor_deadline_trips_);
      break;
    case GovernorTripKind::kTupleBudget:
      Bump(&governor_tuple_trips_);
      break;
    case GovernorTripKind::kRewriteBudget:
      Bump(&governor_rewrite_trips_);
      break;
    case GovernorTripKind::kCancelled:
      Bump(&governor_cancellations_);
      break;
  }
}

void ExecContext::RaiseHighWater(std::atomic<uint64_t>* mark, uint64_t value) {
  uint64_t seen = mark->load(std::memory_order_relaxed);
  while (value > seen &&
         !mark->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void ExecContext::RaiseTuplesCharged(uint64_t n) {
  RaiseHighWater(&governor_max_tuples_charged_, n);
}

void ExecContext::RaiseRewriteNodesCharged(uint64_t n) {
  RaiseHighWater(&governor_max_rewrite_nodes_charged_, n);
}

void ExecContext::NoteRoute(const char* route) {
  std::lock_guard<std::mutex> lock(mu_);
  route_ = route;
}

void ExecContext::RecordSpan(OperatorSpan span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

ExecStats ExecContext::Snapshot() const {
  ExecStats stats;
  stats.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  stats.memo_misses = memo_misses_.load(std::memory_order_relaxed);
  stats.plan_cache_hits = plan_cache_hits_.load(std::memory_order_relaxed);
  stats.plan_cache_misses =
      plan_cache_misses_.load(std::memory_order_relaxed);
  stats.views_created = views_created_.load(std::memory_order_relaxed);
  stats.view_consolidations =
      view_consolidations_.load(std::memory_order_relaxed);
  stats.view_tuples_shared =
      view_tuples_shared_.load(std::memory_order_relaxed);
  stats.view_tuples_copied =
      view_tuples_copied_.load(std::memory_order_relaxed);
  stats.indexes_built = indexes_built_.load(std::memory_order_relaxed);
  stats.indexes_shared = indexes_shared_.load(std::memory_order_relaxed);
  stats.index_probes = index_probes_.load(std::memory_order_relaxed);
  stats.index_tuples_skipped =
      index_tuples_skipped_.load(std::memory_order_relaxed);
  stats.governor_deadline_trips =
      governor_deadline_trips_.load(std::memory_order_relaxed);
  stats.governor_tuple_trips =
      governor_tuple_trips_.load(std::memory_order_relaxed);
  stats.governor_rewrite_trips =
      governor_rewrite_trips_.load(std::memory_order_relaxed);
  stats.governor_cancellations =
      governor_cancellations_.load(std::memory_order_relaxed);
  stats.governor_lazy_fallbacks =
      governor_lazy_fallbacks_.load(std::memory_order_relaxed);
  stats.governor_index_fallbacks =
      governor_index_fallbacks_.load(std::memory_order_relaxed);
  stats.governor_max_tuples_charged =
      governor_max_tuples_charged_.load(std::memory_order_relaxed);
  stats.governor_max_rewrite_nodes_charged =
      governor_max_rewrite_nodes_charged_.load(std::memory_order_relaxed);
  stats.columnar_batches_built =
      columnar_batches_built_.load(std::memory_order_relaxed);
  stats.columnar_batches_reused =
      columnar_batches_reused_.load(std::memory_order_relaxed);
  stats.columnar_morsels_dispatched =
      columnar_morsels_dispatched_.load(std::memory_order_relaxed);
  stats.columnar_rows_vectorized =
      columnar_rows_vectorized_.load(std::memory_order_relaxed);
  stats.columnar_rows_fallback =
      columnar_rows_fallback_.load(std::memory_order_relaxed);
  stats.columnar_agg_rows_vectorized =
      columnar_agg_rows_vectorized_.load(std::memory_order_relaxed);
  stats.columnar_agg_groups =
      columnar_agg_groups_.load(std::memory_order_relaxed);
  stats.columnar_when_routed =
      columnar_when_routed_.load(std::memory_order_relaxed);
  stats.incremental_results_patched =
      incremental_results_patched_.load(std::memory_order_relaxed);
  stats.incremental_edits_propagated =
      incremental_edits_propagated_.load(std::memory_order_relaxed);
  stats.incremental_fallbacks =
      incremental_fallbacks_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.route = route_;
    stats.spans = spans_;
  }
  return stats;
}

void ExecContext::MergeFrom(const ExecStats& stats) {
  Bump(&memo_hits_, stats.memo_hits);
  Bump(&memo_misses_, stats.memo_misses);
  Bump(&plan_cache_hits_, stats.plan_cache_hits);
  Bump(&plan_cache_misses_, stats.plan_cache_misses);
  Bump(&views_created_, stats.views_created);
  Bump(&view_consolidations_, stats.view_consolidations);
  Bump(&view_tuples_shared_, stats.view_tuples_shared);
  Bump(&view_tuples_copied_, stats.view_tuples_copied);
  Bump(&indexes_built_, stats.indexes_built);
  Bump(&indexes_shared_, stats.indexes_shared);
  Bump(&index_probes_, stats.index_probes);
  Bump(&index_tuples_skipped_, stats.index_tuples_skipped);
  Bump(&governor_deadline_trips_, stats.governor_deadline_trips);
  Bump(&governor_tuple_trips_, stats.governor_tuple_trips);
  Bump(&governor_rewrite_trips_, stats.governor_rewrite_trips);
  Bump(&governor_cancellations_, stats.governor_cancellations);
  Bump(&governor_lazy_fallbacks_, stats.governor_lazy_fallbacks);
  Bump(&governor_index_fallbacks_, stats.governor_index_fallbacks);
  RaiseTuplesCharged(stats.governor_max_tuples_charged);
  RaiseRewriteNodesCharged(stats.governor_max_rewrite_nodes_charged);
  Bump(&columnar_batches_built_, stats.columnar_batches_built);
  Bump(&columnar_batches_reused_, stats.columnar_batches_reused);
  Bump(&columnar_morsels_dispatched_, stats.columnar_morsels_dispatched);
  Bump(&columnar_rows_vectorized_, stats.columnar_rows_vectorized);
  Bump(&columnar_rows_fallback_, stats.columnar_rows_fallback);
  Bump(&columnar_agg_rows_vectorized_, stats.columnar_agg_rows_vectorized);
  Bump(&columnar_agg_groups_, stats.columnar_agg_groups);
  Bump(&columnar_when_routed_, stats.columnar_when_routed);
  Bump(&incremental_results_patched_, stats.incremental_results_patched);
  Bump(&incremental_edits_propagated_, stats.incremental_edits_propagated);
  Bump(&incremental_fallbacks_, stats.incremental_fallbacks);
  std::lock_guard<std::mutex> lock(mu_);
  if (route_.empty()) route_ = stats.route;
  spans_.insert(spans_.end(), stats.spans.begin(), stats.spans.end());
}

void ExecContext::Reset() {
  ResetMemoCounters();
  ResetViewCounters();
  ResetIndexCounters();
  ResetGovernorCounters();
  ResetColumnarCounters();
  ResetIncrementalCounters();
  std::lock_guard<std::mutex> lock(mu_);
  route_.clear();
  spans_.clear();
}

void ExecContext::ResetMemoCounters() {
  memo_hits_.store(0, std::memory_order_relaxed);
  memo_misses_.store(0, std::memory_order_relaxed);
  plan_cache_hits_.store(0, std::memory_order_relaxed);
  plan_cache_misses_.store(0, std::memory_order_relaxed);
}

void ExecContext::ResetViewCounters() {
  views_created_.store(0, std::memory_order_relaxed);
  view_consolidations_.store(0, std::memory_order_relaxed);
  view_tuples_shared_.store(0, std::memory_order_relaxed);
  view_tuples_copied_.store(0, std::memory_order_relaxed);
}

void ExecContext::ResetIndexCounters() {
  indexes_built_.store(0, std::memory_order_relaxed);
  indexes_shared_.store(0, std::memory_order_relaxed);
  index_probes_.store(0, std::memory_order_relaxed);
  index_tuples_skipped_.store(0, std::memory_order_relaxed);
}

void ExecContext::ResetGovernorCounters() {
  governor_deadline_trips_.store(0, std::memory_order_relaxed);
  governor_tuple_trips_.store(0, std::memory_order_relaxed);
  governor_rewrite_trips_.store(0, std::memory_order_relaxed);
  governor_cancellations_.store(0, std::memory_order_relaxed);
  governor_lazy_fallbacks_.store(0, std::memory_order_relaxed);
  governor_index_fallbacks_.store(0, std::memory_order_relaxed);
  governor_max_tuples_charged_.store(0, std::memory_order_relaxed);
  governor_max_rewrite_nodes_charged_.store(0, std::memory_order_relaxed);
}

void ExecContext::ResetColumnarCounters() {
  columnar_batches_built_.store(0, std::memory_order_relaxed);
  columnar_batches_reused_.store(0, std::memory_order_relaxed);
  columnar_morsels_dispatched_.store(0, std::memory_order_relaxed);
  columnar_rows_vectorized_.store(0, std::memory_order_relaxed);
  columnar_rows_fallback_.store(0, std::memory_order_relaxed);
  columnar_agg_rows_vectorized_.store(0, std::memory_order_relaxed);
  columnar_agg_groups_.store(0, std::memory_order_relaxed);
  columnar_when_routed_.store(0, std::memory_order_relaxed);
}

void ExecContext::ResetIncrementalCounters() {
  incremental_results_patched_.store(0, std::memory_order_relaxed);
  incremental_edits_propagated_.store(0, std::memory_order_relaxed);
  incremental_fallbacks_.store(0, std::memory_order_relaxed);
}

ExecContext* CurrentExecContext() { return t_current_context; }

ExecContext& ProcessDefaultExecContext() {
  static ExecContext* context = new ExecContext();  // never destroyed
  return *context;
}

ExecContextScope::ExecContextScope(ExecContext* context)
    : prev_(t_current_context) {
  t_current_context = context;
}

ExecContextScope::~ExecContextScope() { t_current_context = prev_; }

ExecRouteScope::ExecRouteScope(const char* route) : prev_(t_current_route) {
  t_current_route = route;
}

ExecRouteScope::~ExecRouteScope() { t_current_route = prev_; }

const char* CurrentExecRoute() { return t_current_route; }

TraceSpan::TraceSpan(const char* op, uint64_t rows_in) {
  ExecContext& ambient = AmbientExecContext();
  if (!ambient.tracing()) return;
  context_ = &ambient;
  op_ = op;
  rows_in_ = rows_in;
  start_micros_ = NowMicros();
}

TraceSpan::~TraceSpan() {
  if (context_ == nullptr) return;
  OperatorSpan span;
  span.op = op_;
  span.route = CurrentExecRoute();
  span.rows_in = rows_in_;
  span.rows_out = rows_out_;
  span.micros = NowMicros() - start_micros_;
  context_->RecordSpan(std::move(span));
}

}  // namespace hql
