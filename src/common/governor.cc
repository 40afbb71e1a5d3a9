#include "common/governor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/strings.h"

namespace hql {

namespace {

thread_local ExecGovernor* t_current_governor = nullptr;
thread_local RewriteNodeTally* t_rewrite_tally = nullptr;

}  // namespace

ExecGovernor::ExecGovernor(const ExecBudget& budget, CancelTokenPtr cancel,
                           CancelTokenPtr cancel2)
    : budget_(budget),
      cancel_(std::move(cancel)),
      cancel2_(std::move(cancel2)) {
  if (budget_.check_interval == 0) budget_.check_interval = 1;
  if (budget_.deadline_ms > 0) {
    has_deadline_ = true;
    // A deadline past the clock's range saturates instead of overflowing.
    auto now = std::chrono::steady_clock::now();
    auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::time_point::max() - now);
    deadline_ = now + std::min(std::chrono::milliseconds(budget_.deadline_ms),
                               headroom);
  }
  next_check_.store(budget_.check_interval, std::memory_order_relaxed);
}

ExecGovernor::~ExecGovernor() {
  ExecContext& ctx = AmbientExecContext();
  ctx.RaiseHighWater(ExecCounter::kGovernorMaxTuplesCharged,
                     tuples_.load(std::memory_order_relaxed));
  ctx.RaiseHighWater(ExecCounter::kGovernorMaxRewriteNodesCharged,
                     rewrite_nodes_.load(std::memory_order_relaxed));
}

void ExecGovernor::Trip(StatusCode code, std::string message) {
  HQL_CHECK(code == StatusCode::kCancelled ||
            code == StatusCode::kResourceExhausted);
  std::lock_guard<std::mutex> lock(mu_);
  if (tripped_.load(std::memory_order_relaxed)) return;  // first trip wins
  trip_status_ = Status(code, std::move(message));
  if (code == StatusCode::kCancelled) {
    AmbientExecContext().Add(ExecCounter::kGovernorCancellations);
  }
  tripped_.store(true, std::memory_order_release);
}

Status ExecGovernor::status() const {
  if (!tripped()) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  return trip_status_;
}

bool ExecGovernor::SlowCheck() {
  if (tripped()) return false;
  if ((cancel_ != nullptr && cancel_->cancelled()) ||
      (cancel2_ != nullptr && cancel2_->cancelled())) {
    Trip(StatusCode::kCancelled, "execution cancelled via CancelToken");
    return false;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() > deadline_) {
    AmbientExecContext().Add(ExecCounter::kGovernorDeadlineTrips);
    Trip(StatusCode::kResourceExhausted,
         StrFormat("deadline of %lld ms exceeded",
                   static_cast<long long>(budget_.deadline_ms)));
    return false;
  }
  return true;
}

bool ExecGovernor::ChargeTuples(uint64_t n) {
  if (tripped()) return false;
  uint64_t total = tuples_.fetch_add(n, std::memory_order_relaxed) + n;
  if (budget_.max_tuples != 0 && total > budget_.max_tuples) {
    AmbientExecContext().Add(ExecCounter::kGovernorTupleTrips);
    Trip(StatusCode::kResourceExhausted,
         StrFormat("tuple budget of %llu exceeded",
                   static_cast<unsigned long long>(budget_.max_tuples)));
    return false;
  }
  return Tick(n);
}

bool ExecGovernor::Tick(uint64_t n) {
  if (tripped()) return false;
  uint64_t total = ticks_.fetch_add(n, std::memory_order_relaxed) + n;
  if (total >= next_check_.load(std::memory_order_relaxed)) {
    next_check_.store(total + budget_.check_interval,
                      std::memory_order_relaxed);
    return SlowCheck();
  }
  return true;
}

bool ExecGovernor::ChargeRewriteNodes(uint64_t n) {
  if (tripped()) return false;
  uint64_t total = rewrite_nodes_.fetch_add(n, std::memory_order_relaxed) + n;
  if (budget_.max_rewrite_nodes != 0 && total > budget_.max_rewrite_nodes) {
    ExecContext& ctx = AmbientExecContext();
    ctx.Add(ExecCounter::kGovernorRewriteTrips);
    ctx.RaiseHighWater(ExecCounter::kGovernorMaxRewriteNodesCharged, total);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!tripped_.load(std::memory_order_relaxed)) {
        trip_status_ = Status::ResourceExhausted(StrFormat(
            "rewrite-node budget of %llu exceeded (lazy blow-up guard)",
            static_cast<unsigned long long>(budget_.max_rewrite_nodes)));
        rewrite_tripped_.store(true, std::memory_order_release);
        tripped_.store(true, std::memory_order_release);
      }
    }
    return false;
  }
  return !tripped();
}

bool ExecGovernor::ClearRewriteTrip() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!tripped_.load(std::memory_order_relaxed)) return true;
  if (!rewrite_tripped_.load(std::memory_order_relaxed)) return false;
  trip_status_ = Status::OK();
  rewrite_nodes_.store(0, std::memory_order_relaxed);
  rewrite_tripped_.store(false, std::memory_order_release);
  tripped_.store(false, std::memory_order_release);
  return true;
}

Status ExecGovernor::Check() {
  if (tripped()) return status();
  SlowCheck();
  return status();
}

bool ExecGovernor::AllowIndexBuild(uint64_t base_rows) {
  if (tripped()) return false;
  return budget_.max_index_build_rows == 0 ||
         base_rows <= budget_.max_index_build_rows;
}

ExecGovernor* CurrentGovernor() { return t_current_governor; }

GovernorScope::GovernorScope(ExecGovernor* governor)
    : prev_(t_current_governor) {
  t_current_governor = governor;
}

GovernorScope::~GovernorScope() { t_current_governor = prev_; }

Status GovernorChargeRewriteNodes(uint64_t n) {
  if (t_rewrite_tally != nullptr) t_rewrite_tally->count_ += n;
  ExecGovernor* gov = CurrentGovernor();
  if (gov == nullptr || gov->ChargeRewriteNodes(n)) return Status::OK();
  return gov->status();
}

RewriteNodeTally::RewriteNodeTally() : prev_(t_rewrite_tally) {
  t_rewrite_tally = this;
}

RewriteNodeTally::~RewriteNodeTally() {
  t_rewrite_tally = prev_;
  if (prev_ != nullptr) prev_->count_ += count_;
}

}  // namespace hql
