#ifndef HQL_COMMON_GOVERNOR_H_
#define HQL_COMMON_GOVERNOR_H_

// The execution governor: bounded, cancellable, degrade-gracefully
// execution for every hot path in the library.
//
// Three pieces cooperate:
//   * ExecBudget — declarative resource limits: a wall-clock deadline, a
//     tuple budget on operator output, a node budget on the HQL rewriters
//     (the Example 2.4 blow-up guard), and a row cap on advisor-driven
//     index builds.
//   * CancelToken — a shared atomic flag; any thread may Cancel() it and
//     every governed loop observes it cooperatively within one check
//     interval.
//   * ExecGovernor — one in-flight execution's accounting: it owns the
//     deadline clock, the charge counters and the trip state. Installed
//     into a thread-local slot with GovernorScope, so the physical kernels
//     (whose signatures return plain Relations) can charge work without
//     signature churn; fallible layers observe trips via GovernorCheck().
//
// Trip semantics: an expired deadline or an exceeded budget trips the
// governor with kResourceExhausted; an observed CancelToken trips it with
// kCancelled. Once tripped, every subsequent ChargeTuples/Tick returns
// false (kernels break out of their loops and return truncated data that
// the Status-returning caller discards) and GovernorCheck() returns the
// trip status, which propagates out as a clean error — never an abort.
//
// The planner additionally *recovers* from one trip kind: a rewrite-node
// trip during the lazy route clears via ClearRewriteTrip() and execution
// retries along the hybrid/eager route (the fallback lattice
// lazy -> hybrid -> eager). Trips and fallbacks are charged to the ambient
// ExecContext (common/exec_context.h), which explain/ExplainAnalyze
// surface per execution.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace hql {

/// Shared cooperative-cancellation flag. Thread-safe; cheap to poll.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

using CancelTokenPtr = std::shared_ptr<CancelToken>;

/// Resource limits for one execution. Every limit defaults to 0 =
/// unlimited; a default-constructed budget governs nothing.
struct ExecBudget {
  /// Wall-clock deadline in milliseconds, measured from governor creation.
  int64_t deadline_ms = 0;

  /// Cap on tuples *produced* by physical operators (filter/project/join/
  /// aggregate/delta outputs), summed over the whole execution. Producing
  /// exactly max_tuples succeeds; one more trips.
  uint64_t max_tuples = 0;

  /// Cap on nodes produced by the HQL rewriters (reduce / enf / collapse,
  /// with lazy substitution charged at expanded-tree size). Trips the
  /// Example 2.4 blow-up before it reaches evaluation.
  uint64_t max_rewrite_nodes = 0;

  /// Advisor-driven index builds over bases larger than this fall back to
  /// scans instead of building (0 = always allowed).
  uint64_t max_index_build_rows = 0;

  /// Cooperative check cadence: deadline and cancel token are polled every
  /// this many charged/ticked tuples (and at every operator boundary).
  uint32_t check_interval = 1024;

  bool unlimited() const {
    return deadline_ms == 0 && max_tuples == 0 && max_rewrite_nodes == 0 &&
           max_index_build_rows == 0;
  }
};

// Governor charges land on the ambient ExecContext's "governor" counters
// (common/exec_context.h): trips, cancellations, lazy and index fallbacks,
// and the high-water marks of the tuple and rewrite-node budgets. Install
// an ExecContextScope and read Snapshot() to observe them.

class ExecGovernor {
 public:
  /// An unlimited governor with no cancel token: every charge succeeds.
  ExecGovernor() : ExecGovernor(ExecBudget{}) {}

  /// Budgeted governor; the deadline clock starts now. Either token may be
  /// null; both are polled (EvalAlternatives links a caller token and the
  /// pool-wide first-failure token).
  explicit ExecGovernor(const ExecBudget& budget,
                        CancelTokenPtr cancel = nullptr,
                        CancelTokenPtr cancel2 = nullptr);

  /// Publishes this execution's high-water marks into the ambient
  /// ExecContext.
  ~ExecGovernor();

  ExecGovernor(const ExecGovernor&) = delete;
  ExecGovernor& operator=(const ExecGovernor&) = delete;

  /// Charges `n` produced tuples against the tuple budget and runs the
  /// cooperative check on cadence. Returns true to keep going; false means
  /// the governor tripped (status() has the error) and the loop must stop.
  bool ChargeTuples(uint64_t n);

  /// Accounts `n` processed (not produced) tuples toward the cooperative
  /// check cadence only — a selective scan over millions of rows observes
  /// deadline and cancellation even when it emits nothing.
  bool Tick(uint64_t n = 1);

  /// Charges `n` rewriter-produced nodes; trips kResourceExhausted with
  /// the rewrite marker when the budget is exceeded.
  bool ChargeRewriteNodes(uint64_t n);

  /// Full cooperative check regardless of cadence: trip state, cancel
  /// tokens, deadline. OK while execution may continue.
  Status Check();

  /// The trip status: OK while not tripped.
  Status status() const;

  bool tripped() const { return tripped_.load(std::memory_order_acquire); }

  /// True if the trip was the rewrite-node budget — the recoverable case.
  bool rewrite_tripped() const {
    return rewrite_tripped_.load(std::memory_order_acquire);
  }

  /// Clears a rewrite-node trip (and only that kind) so the planner can
  /// retry along the eager route; the charge counter is rewound to zero so
  /// the fallback's own (bounded) rewrites are not pre-charged. Returns
  /// false if the governor is tripped for a different reason.
  bool ClearRewriteTrip();

  /// Trips the governor explicitly (failpoints, tests). `code` must be
  /// kCancelled or kResourceExhausted.
  void Trip(StatusCode code, std::string message);

  /// False when an advisor-driven index build over `base_rows` rows must
  /// degrade to scans (budget cap or an already-tripped governor).
  bool AllowIndexBuild(uint64_t base_rows);

  uint64_t tuples_charged() const {
    return tuples_.load(std::memory_order_relaxed);
  }
  uint64_t rewrite_nodes_charged() const {
    return rewrite_nodes_.load(std::memory_order_relaxed);
  }
  const ExecBudget& budget() const { return budget_; }

 private:
  // Deadline + cancel-token poll; trips on violation. Returns !tripped().
  bool SlowCheck();

  ExecBudget budget_;
  CancelTokenPtr cancel_;
  CancelTokenPtr cancel2_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  std::atomic<uint64_t> tuples_{0};
  std::atomic<uint64_t> rewrite_nodes_{0};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> next_check_{0};

  std::atomic<bool> tripped_{false};
  std::atomic<bool> rewrite_tripped_{false};
  mutable std::mutex mu_;  // guards the trip status message
  Status trip_status_;
};

/// The governor governing the current thread's execution, or nullptr.
ExecGovernor* CurrentGovernor();

/// RAII installation of a governor into the thread-local slot. Scopes nest;
/// the previous governor is restored on destruction. Passing nullptr
/// shields an inner region from an outer governor.
class GovernorScope {
 public:
  explicit GovernorScope(ExecGovernor* governor);
  ~GovernorScope();

  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  ExecGovernor* prev_;
};

/// Cooperative checkpoint for Status-returning layers: OK when no governor
/// is installed, otherwise the ambient governor's full Check().
inline Status GovernorCheck() {
  ExecGovernor* gov = CurrentGovernor();
  if (gov == nullptr) return Status::OK();
  return gov->Check();
}

/// Charges rewriter-produced nodes against the ambient governor (no-op
/// without one); returns the trip status when the budget is exceeded. The
/// charge is also counted by any RewriteNodeTally in scope.
Status GovernorChargeRewriteNodes(uint64_t n);

/// Counts the rewrite nodes charged on the current thread while in scope,
/// whether or not a governor is installed. The plan cache (opt/planner.cc)
/// records a cold planning's charge this way, so that a hit can replay it
/// against whatever budget is ambient then. Tallies nest; an inner tally's
/// count also reaches the outer one.
class RewriteNodeTally {
 public:
  RewriteNodeTally();
  ~RewriteNodeTally();

  RewriteNodeTally(const RewriteNodeTally&) = delete;
  RewriteNodeTally& operator=(const RewriteNodeTally&) = delete;

  uint64_t count() const { return count_; }

 private:
  friend Status GovernorChargeRewriteNodes(uint64_t n);
  RewriteNodeTally* prev_;
  uint64_t count_ = 0;
};

}  // namespace hql

#endif  // HQL_COMMON_GOVERNOR_H_
