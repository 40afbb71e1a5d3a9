#include "common/exec_context.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/json.h"
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

// ExecStats' members in list order, so loops over the list can reach them.
constexpr uint64_t ExecStats::*kMembers[] = {
#define HQL_EXEC_COUNTER_MEMBER(key, Enumerator, merge, group) &ExecStats::key,
    HQL_EXEC_COUNTERS(HQL_EXEC_COUNTER_MEMBER)
#undef HQL_EXEC_COUNTER_MEMBER
};

}  // namespace

uint64_t& ExecStats::operator[](ExecCounter counter) {
  return this->*kMembers[static_cast<size_t>(counter)];
}

uint64_t ExecStats::operator[](ExecCounter counter) const {
  return this->*kMembers[static_cast<size_t>(counter)];
}

void ExecStats::MergeFrom(const ExecStats& other) {
  for (const ExecCounterInfo& c : kExecCounters) {
    uint64_t& mine = (*this)[c.counter];
    uint64_t theirs = other[c.counter];
    mine = c.merge == ExecMerge::kSum ? mine + theirs : std::max(mine, theirs);
  }
  if (route.empty()) route = other.route;
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

std::string ExecStats::ToJson() const {
  std::string out = "{\"schema\":\"hql-exec-stats/v1\"";
  for (const ExecCounterInfo& c : kExecCounters) {
    out += StrFormat(",\"%s\":%llu", c.key,
                     static_cast<unsigned long long>((*this)[c.counter]));
  }
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
  for (const ExecCounterInfo& c : kExecCounters) {
    stats[c.counter] = Slot(c.counter).load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.route = route_;
    stats.spans = spans_;
  }
  return stats;
}

void ExecContext::MergeFrom(const ExecStats& stats) {
  for (const ExecCounterInfo& c : kExecCounters) {
    if (c.merge == ExecMerge::kSum) {
      Add(c.counter, stats[c.counter]);
    } else {
      RaiseHighWater(c.counter, stats[c.counter]);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (route_.empty()) route_ = stats.route;
  spans_.insert(spans_.end(), stats.spans.begin(), stats.spans.end());
}

void ExecContext::Reset() {
  for (std::atomic<uint64_t>& counter : counters_) {
    counter.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  route_.clear();
  spans_.clear();
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
