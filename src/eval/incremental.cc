#include "eval/incremental.h"

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/failpoint.h"
#include "common/governor.h"
#include "eval/index_exec.h"
#include "storage/index.h"
#include "storage/tuple.h"

namespace hql {

const char* IncrementalModeName(IncrementalMode mode) {
  switch (mode) {
    case IncrementalMode::kOff:
      return "off";
    case IncrementalMode::kAuto:
      return "auto";
  }
  return "off";
}

std::shared_ptr<const IncrementalEntry> IncrementalRecorder::TakeEntry(
    RelationView result, uint64_t state_fingerprint) {
  auto entry = std::make_shared<IncrementalEntry>(std::move(entry_));
  entry->result = std::move(result);
  entry->state_fingerprint = state_fingerprint;
  entry_ = IncrementalEntry{};
  return entry;
}

namespace {

// Collects the base-relation names of a pure RA query; false when the tree
// contains a node outside pure RA (a residual `when`), which the patcher
// cannot reason about.
bool CollectLeafNames(const QueryPtr& q, std::set<std::string>* names) {
  if (q == nullptr) return true;
  switch (q->kind()) {
    case QueryKind::kRel:
      names->insert(q->rel_name());
      return true;
    case QueryKind::kEmpty:
    case QueryKind::kSingleton:
      return true;
    case QueryKind::kSelect:
    case QueryKind::kProject:
    case QueryKind::kAggregate:
      return CollectLeafNames(q->left(), names);
    case QueryKind::kUnion:
    case QueryKind::kIntersect:
    case QueryKind::kProduct:
    case QueryKind::kJoin:
    case QueryKind::kDifference:
      return CollectLeafNames(q->left(), names) &&
             CollectLeafNames(q->right(), names);
    case QueryKind::kWhen:
      return false;
  }
  return false;
}

void SortUniqueTuples(std::vector<Tuple>* v) {
  std::sort(v->begin(), v->end(), TupleLess{});
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

Tuple ProjectTuple(const Tuple& t, const std::vector<size_t>& columns) {
  Tuple out;
  out.reserve(columns.size());
  for (size_t c : columns) out.push_back(t[c]);
  return out;
}

Status TickGovernor(uint64_t n = 1) {
  if (ExecGovernor* gov = CurrentGovernor()) {
    if (!gov->Tick(n)) return gov->status();
  }
  return Status::OK();
}

/// One node's transition: cached output, patched output, and the canonical
/// edit between them (dels subset of old content, adds disjoint from it).
struct NodeDelta {
  RelationView old_view{0};
  RelationView new_view{0};
  std::vector<Tuple> adds;
  std::vector<Tuple> dels;
};

// Propagates the leaf edits of an IncrementalAttempt bottom-up through the
// plan, computing each node's edit from its children's edits plus the
// cached inputs/outputs — never from scratch. Shared DAG subtrees propagate
// once (memoized by structural fingerprint). Any shape the rules do not
// cover surfaces kUnimplemented, which the caller turns into a full
// re-evaluation.
class DeltaPropagator {
 public:
  explicit DeltaPropagator(const IncrementalAttempt& attempt)
      : attempt_(attempt) {}

  Result<NodeDelta> Propagate(const QueryPtr& node);

  uint64_t edits_propagated() const { return edits_propagated_; }
  std::unordered_map<uint64_t, RelationView> TakeNodeValues() {
    return std::move(new_node_values_);
  }

 private:
  Result<NodeDelta> Compute(const QueryPtr& node);
  Result<NodeDelta> PropagateJoin(const QueryPtr& node, const QueryPtr& lhs,
                                  const QueryPtr& rhs,
                                  const ScalarExprPtr& pred);

  /// Joins the (small) edit side against the cached other side: index probe
  /// when the other side is flat and its base already carries a matching
  /// index, one hash-keyed scan when an equality conjunct exists, nested
  /// loop otherwise. Returns combined tuples passing the full predicate.
  Result<std::vector<Tuple>> JoinEditAgainst(const std::vector<Tuple>& edit,
                                             const RelationView& other,
                                             const ScalarExprPtr& pred,
                                             bool edit_on_left,
                                             size_t lhs_arity);

  /// The node's output recorded by the previous execution; kUnimplemented
  /// when the recording does not cover it.
  Result<RelationView> OldOf(const QueryPtr& node);

  /// Accounts a finished node: the edit counts as propagated work and its
  /// tuples are charged to the governor like produced tuples.
  Status ChargeNode(const NodeDelta& d) {
    edits_propagated_ += d.adds.size() + d.dels.size();
    if (ExecGovernor* gov = CurrentGovernor()) {
      if (!gov->ChargeTuples(d.adds.size() + d.dels.size())) {
        return gov->status();
      }
    }
    return Status::OK();
  }

  const IncrementalAttempt& attempt_;
  std::unordered_map<uint64_t, NodeDelta> done_;
  std::unordered_map<uint64_t, RelationView> new_node_values_;
  uint64_t edits_propagated_ = 0;
};

Result<NodeDelta> DeltaPropagator::Propagate(const QueryPtr& node) {
  uint64_t fp = node->Fingerprint();
  auto it = done_.find(fp);
  if (it != done_.end()) return it->second;
  HQL_RETURN_IF_ERROR(GovernorCheck());
  Result<NodeDelta> computed = Compute(node);
  if (!computed.ok()) return computed.status();
  HQL_RETURN_IF_ERROR(ChargeNode(*computed));
  bool is_leaf = node->kind() == QueryKind::kRel ||
                 node->kind() == QueryKind::kEmpty ||
                 node->kind() == QueryKind::kSingleton;
  if (!is_leaf) new_node_values_.insert_or_assign(fp, computed->new_view);
  done_.insert_or_assign(fp, *computed);
  return computed;
}

Result<NodeDelta> DeltaPropagator::Compute(const QueryPtr& node) {
  switch (node->kind()) {
    case QueryKind::kRel: {
      const std::string& name = node->rel_name();
      auto nit = attempt_.inputs.find(name);
      auto oit = attempt_.entry->inputs.find(name);
      if (nit == attempt_.inputs.end() || oit == attempt_.entry->inputs.end()) {
        return Status::Unimplemented("incremental: leaf '" + name +
                                     "' not covered by the cached execution");
      }
      NodeDelta d;
      d.old_view = oit->second;
      d.new_view = nit->second;
      auto eit = attempt_.edits.find(name);
      if (eit != attempt_.edits.end()) {
        d.adds = eit->second.adds;
        d.dels = eit->second.dels;
      }
      return d;
    }

    case QueryKind::kEmpty: {
      NodeDelta d;
      d.old_view = RelationView(node->empty_arity());
      d.new_view = d.old_view;
      return d;
    }

    case QueryKind::kSingleton: {
      NodeDelta d;
      d.old_view = RelationView(Relation::FromSortedUnique(
          node->tuple().size(), {node->tuple()}));
      d.new_view = d.old_view;
      return d;
    }

    case QueryKind::kSelect: {
      // Mirror the evaluator's clustering: a selection over a product or a
      // theta join runs as one join node, and the cached output lives under
      // the *selection*'s fingerprint — the child was never evaluated
      // separately.
      const QueryPtr& child = node->left();
      if (child->kind() == QueryKind::kProduct) {
        return PropagateJoin(node, child->left(), child->right(),
                             node->predicate());
      }
      if (child->kind() == QueryKind::kJoin) {
        ScalarExprPtr combined = ScalarExpr::Binary(
            ScalarOp::kAnd, node->predicate(), child->predicate());
        return PropagateJoin(node, child->left(), child->right(), combined);
      }
      HQL_ASSIGN_OR_RETURN(NodeDelta c, Propagate(child));
      HQL_ASSIGN_OR_RETURN(RelationView old_out, OldOf(node));
      const ScalarExpr& pred = *node->predicate();
      NodeDelta d;
      d.old_view = old_out;
      for (const Tuple& t : c.adds) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (pred.EvaluatesTrue(t)) d.adds.push_back(t);
      }
      for (const Tuple& t : c.dels) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (pred.EvaluatesTrue(t)) d.dels.push_back(t);
      }
      d.new_view = old_out.ApplyDelta(d.adds, d.dels);
      return d;
    }

    case QueryKind::kProject: {
      HQL_ASSIGN_OR_RETURN(NodeDelta c, Propagate(node->left()));
      HQL_ASSIGN_OR_RETURN(RelationView old_out, OldOf(node));
      const std::vector<size_t>& cols = node->columns();
      NodeDelta d;
      d.old_view = old_out;
      // Projection is the one operator where a deletion needs support
      // counting: pi(dels) tuples stay in the output while any other child
      // tuple still projects onto them.
      for (const Tuple& t : c.adds) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        Tuple p = ProjectTuple(t, cols);
        if (!old_out.Contains(p)) d.adds.push_back(std::move(p));
      }
      SortUniqueTuples(&d.adds);
      if (!c.dels.empty()) {
        std::vector<Tuple> cand;
        for (const Tuple& t : c.dels) {
          HQL_RETURN_IF_ERROR(TickGovernor());
          Tuple p = ProjectTuple(t, cols);
          if (old_out.Contains(p)) cand.push_back(std::move(p));
        }
        SortUniqueTuples(&cand);
        if (!cand.empty()) {
          // One scan of the new child content strikes out every candidate
          // that still has support; survivors are true deletions.
          std::vector<char> supported(cand.size(), 0);
          for (const Tuple& t : c.new_view) {
            HQL_RETURN_IF_ERROR(TickGovernor());
            Tuple p = ProjectTuple(t, cols);
            auto it = std::lower_bound(cand.begin(), cand.end(), p,
                                       TupleLess{});
            if (it != cand.end() && *it == p) {
              supported[static_cast<size_t>(it - cand.begin())] = 1;
            }
          }
          for (size_t i = 0; i < cand.size(); ++i) {
            if (!supported[i]) d.dels.push_back(std::move(cand[i]));
          }
        }
      }
      d.new_view = old_out.ApplyDelta(d.adds, d.dels);
      return d;
    }

    case QueryKind::kUnion: {
      HQL_ASSIGN_OR_RETURN(NodeDelta l, Propagate(node->left()));
      HQL_ASSIGN_OR_RETURN(NodeDelta r, Propagate(node->right()));
      HQL_ASSIGN_OR_RETURN(RelationView old_out, OldOf(node));
      NodeDelta d;
      d.old_view = old_out;
      for (const std::vector<Tuple>* adds : {&l.adds, &r.adds}) {
        for (const Tuple& t : *adds) {
          HQL_RETURN_IF_ERROR(TickGovernor());
          if (!old_out.Contains(t)) d.adds.push_back(t);
        }
      }
      for (const Tuple& t : l.dels) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (!r.new_view.Contains(t)) d.dels.push_back(t);
      }
      for (const Tuple& t : r.dels) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (!l.new_view.Contains(t)) d.dels.push_back(t);
      }
      SortUniqueTuples(&d.adds);
      SortUniqueTuples(&d.dels);
      d.new_view = old_out.ApplyDelta(d.adds, d.dels);
      return d;
    }

    case QueryKind::kIntersect: {
      HQL_ASSIGN_OR_RETURN(NodeDelta l, Propagate(node->left()));
      HQL_ASSIGN_OR_RETURN(NodeDelta r, Propagate(node->right()));
      HQL_ASSIGN_OR_RETURN(RelationView old_out, OldOf(node));
      NodeDelta d;
      d.old_view = old_out;
      for (const Tuple& t : l.adds) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (r.new_view.Contains(t)) d.adds.push_back(t);
      }
      for (const Tuple& t : r.adds) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (l.new_view.Contains(t)) d.adds.push_back(t);
      }
      for (const std::vector<Tuple>* dels : {&l.dels, &r.dels}) {
        for (const Tuple& t : *dels) {
          HQL_RETURN_IF_ERROR(TickGovernor());
          if (old_out.Contains(t)) d.dels.push_back(t);
        }
      }
      SortUniqueTuples(&d.adds);
      SortUniqueTuples(&d.dels);
      d.new_view = old_out.ApplyDelta(d.adds, d.dels);
      return d;
    }

    case QueryKind::kDifference: {
      HQL_ASSIGN_OR_RETURN(NodeDelta l, Propagate(node->left()));
      HQL_ASSIGN_OR_RETURN(NodeDelta r, Propagate(node->right()));
      HQL_ASSIGN_OR_RETURN(RelationView old_out, OldOf(node));
      NodeDelta d;
      d.old_view = old_out;
      for (const Tuple& t : l.adds) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (!r.new_view.Contains(t)) d.adds.push_back(t);
      }
      for (const Tuple& t : r.dels) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        if (l.new_view.Contains(t) && !old_out.Contains(t)) {
          d.adds.push_back(t);
        }
      }
      for (const std::vector<Tuple>* side : {&l.dels, &r.adds}) {
        for (const Tuple& t : *side) {
          HQL_RETURN_IF_ERROR(TickGovernor());
          if (old_out.Contains(t)) d.dels.push_back(t);
        }
      }
      SortUniqueTuples(&d.adds);
      SortUniqueTuples(&d.dels);
      d.new_view = old_out.ApplyDelta(d.adds, d.dels);
      return d;
    }

    case QueryKind::kProduct:
      return PropagateJoin(node, node->left(), node->right(), nullptr);

    case QueryKind::kJoin:
      return PropagateJoin(node, node->left(), node->right(),
                           node->predicate());

    case QueryKind::kAggregate: {
      // Sum and count patch group-wise: the edit's group keys name the
      // affected groups, and one governed pass over the new child content
      // re-accumulates exactly those. Min and max would need evidence the
      // old extremum survives a deletion — per-group state the recording
      // does not keep — so they stay recompute-only.
      if (node->agg_func() == AggFunc::kMin ||
          node->agg_func() == AggFunc::kMax) {
        return Status::Unimplemented(
            "incremental: min/max aggregates are not incrementally "
            "maintainable (a deleted extremum needs a rescan)");
      }
      HQL_ASSIGN_OR_RETURN(NodeDelta c, Propagate(node->left()));
      HQL_ASSIGN_OR_RETURN(RelationView old_out, OldOf(node));
      const std::vector<size_t>& cols = node->columns();
      size_t agg_column = node->agg_column();
      NodeDelta d;
      d.old_view = old_out;
      std::vector<Tuple> affected;
      for (const std::vector<Tuple>* edit : {&c.adds, &c.dels}) {
        for (const Tuple& t : *edit) {
          HQL_RETURN_IF_ERROR(TickGovernor());
          affected.push_back(ProjectTuple(t, cols));
        }
      }
      SortUniqueTuples(&affected);
      if (affected.empty()) {
        d.new_view = old_out;
        return d;
      }
      struct Acc {
        int64_t count = 0;
        int64_t int_sum = 0;
        double dbl_sum = 0;
        bool any_double = false;
        bool any_number = false;
      };
      // The sorted new child visits each affected group's tuples in the
      // same order a full re-evaluation would, so double sums come out
      // bit-identical to the recompute alternative.
      std::vector<Acc> accs(affected.size());
      for (const Tuple& t : c.new_view) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        Tuple key = ProjectTuple(t, cols);
        auto it = std::lower_bound(affected.begin(), affected.end(), key,
                                   TupleLess{});
        if (it == affected.end() || !(*it == key)) continue;
        Acc& acc = accs[static_cast<size_t>(it - affected.begin())];
        ++acc.count;
        const Value& v = t[agg_column];
        if (v.is_int()) {
          acc.int_sum += v.AsInt();
          acc.dbl_sum += static_cast<double>(v.AsInt());
          acc.any_number = true;
        } else if (v.is_double()) {
          acc.dbl_sum += v.AsDouble();
          acc.any_double = true;
          acc.any_number = true;
        }
      }
      // The group key is the output tuple's prefix, so one scan of the
      // cached output recovers the affected groups' old rows to diff
      // against the re-accumulated ones.
      std::vector<Tuple> old_rows(affected.size());
      std::vector<char> had_old(affected.size(), 0);
      for (const Tuple& t : old_out) {
        HQL_RETURN_IF_ERROR(TickGovernor());
        Tuple key(t.begin(), t.begin() + static_cast<ptrdiff_t>(cols.size()));
        auto it = std::lower_bound(affected.begin(), affected.end(), key,
                                   TupleLess{});
        if (it == affected.end() || !(*it == key)) continue;
        size_t i = static_cast<size_t>(it - affected.begin());
        old_rows[i] = t;
        had_old[i] = 1;
      }
      for (size_t i = 0; i < affected.size(); ++i) {
        std::optional<Tuple> fresh;
        if (accs[i].count > 0) {
          Value agg;
          if (node->agg_func() == AggFunc::kCount) {
            agg = Value::Int(accs[i].count);
          } else if (!accs[i].any_number) {
            agg = Value::Nul();
          } else if (accs[i].any_double) {
            agg = Value::Double(accs[i].dbl_sum);
          } else {
            agg = Value::Int(accs[i].int_sum);
          }
          Tuple row = affected[i];
          row.push_back(std::move(agg));
          fresh = std::move(row);
        }
        if (had_old[i] && fresh.has_value() && *fresh == old_rows[i]) {
          continue;  // the edit cancelled out for this group
        }
        if (had_old[i]) d.dels.push_back(std::move(old_rows[i]));
        if (fresh.has_value()) d.adds.push_back(std::move(*fresh));
      }
      SortUniqueTuples(&d.adds);
      SortUniqueTuples(&d.dels);
      d.new_view = old_out.ApplyDelta(d.adds, d.dels);
      return d;
    }

    case QueryKind::kWhen:
      return Status::Unimplemented(
          "incremental: residual `when` node in a pure RA plan");
  }
  return Status::Unimplemented("incremental: unknown node kind");
}

Result<NodeDelta> DeltaPropagator::PropagateJoin(const QueryPtr& node,
                                                 const QueryPtr& lhs,
                                                 const QueryPtr& rhs,
                                                 const ScalarExprPtr& pred) {
  HQL_ASSIGN_OR_RETURN(NodeDelta l, Propagate(lhs));
  HQL_ASSIGN_OR_RETURN(NodeDelta r, Propagate(rhs));
  HQL_ASSIGN_OR_RETURN(RelationView old_out, OldOf(node));
  size_t lhs_arity = l.old_view.arity();
  NodeDelta d;
  d.old_view = old_out;
  // Deletions pair against the *old* other side (the tuples the cached
  // output was built from); additions pair against the *new* other side so
  // add x add combinations appear exactly once each... and twice across the
  // two calls, which the sort-unique collapses. Concatenated tuples split
  // uniquely at the fixed arity boundary, so no support counting is needed.
  HQL_ASSIGN_OR_RETURN(
      std::vector<Tuple> del_left,
      JoinEditAgainst(l.dels, r.old_view, pred, true, lhs_arity));
  HQL_ASSIGN_OR_RETURN(
      std::vector<Tuple> del_right,
      JoinEditAgainst(r.dels, l.old_view, pred, false, lhs_arity));
  d.dels = std::move(del_left);
  d.dels.insert(d.dels.end(), std::make_move_iterator(del_right.begin()),
                std::make_move_iterator(del_right.end()));
  SortUniqueTuples(&d.dels);
  HQL_ASSIGN_OR_RETURN(
      std::vector<Tuple> add_left,
      JoinEditAgainst(l.adds, r.new_view, pred, true, lhs_arity));
  HQL_ASSIGN_OR_RETURN(
      std::vector<Tuple> add_right,
      JoinEditAgainst(r.adds, l.new_view, pred, false, lhs_arity));
  d.adds = std::move(add_left);
  d.adds.insert(d.adds.end(), std::make_move_iterator(add_right.begin()),
                std::make_move_iterator(add_right.end()));
  SortUniqueTuples(&d.adds);
  d.new_view = old_out.ApplyDelta(d.adds, d.dels);
  return d;
}

Result<std::vector<Tuple>> DeltaPropagator::JoinEditAgainst(
    const std::vector<Tuple>& edit, const RelationView& other,
    const ScalarExprPtr& pred, bool edit_on_left, size_t lhs_arity) {
  std::vector<Tuple> out;
  if (edit.empty() || other.empty()) return out;

  std::vector<std::pair<size_t, size_t>> equi;
  std::vector<ScalarExprPtr> residual;
  SplitJoinPredicate(pred, lhs_arity, &equi, &residual);

  // (other-side column, edit-side column) per equality conjunct;
  // SplitJoinPredicate already rebased the right column onto the rhs tuple.
  std::vector<std::pair<size_t, size_t>> pairs;
  pairs.reserve(equi.size());
  for (const auto& [lc, rc] : equi) {
    pairs.push_back(edit_on_left ? std::make_pair(rc, lc)
                                 : std::make_pair(lc, rc));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              pairs.end());

  auto emit = [&](const Tuple& e, const Tuple& o) {
    Tuple combined = edit_on_left ? ConcatTuples(e, o) : ConcatTuples(o, e);
    if (pred == nullptr || pred->EvaluatesTrue(combined)) {
      out.push_back(std::move(combined));
    }
  };

  if (!pairs.empty()) {
    std::vector<size_t> other_cols;
    other_cols.reserve(pairs.size());
    for (const auto& [oc, ec] : pairs) other_cols.push_back(oc);
    auto edit_key = [&](const Tuple& e) {
      Tuple key;
      key.reserve(pairs.size());
      for (const auto& [oc, ec] : pairs) key.push_back(e[ec]);
      return key;
    };

    // Index-probe path: a flat other side whose base already carries an
    // index on exactly the equated columns answers each edit tuple in
    // ~O(matches) — the RelationIndex probe the point lookups share.
    if (other.is_flat()) {
      if (RelationIndexPtr index = other.base()->ExistingIndex(other_cols)) {
        const std::vector<Tuple>& base_tuples = other.base()->tuples();
        for (const Tuple& e : edit) {
          RelationIndex::PosSpan span = index->Probe(edit_key(e));
          AmbientExecContext().Add(ExecCounter::kIndexTuplesSkipped,
                                   base_tuples.size() - span.size());
          for (uint32_t pos : span) {
            HQL_RETURN_IF_ERROR(TickGovernor());
            emit(e, base_tuples[pos]);
          }
        }
        return out;
      }
    }

    // Hash path: key the (small) edit, scan the other side once.
    std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> buckets;
    for (const Tuple& e : edit) buckets[edit_key(e)].push_back(&e);
    for (const Tuple& o : other) {
      HQL_RETURN_IF_ERROR(TickGovernor());
      Tuple key;
      key.reserve(other_cols.size());
      for (size_t c : other_cols) key.push_back(o[c]);
      auto it = buckets.find(key);
      if (it == buckets.end()) continue;
      for (const Tuple* e : it->second) emit(*e, o);
    }
    return out;
  }

  // No equality conjunct: nested loop, still bounded by |edit| x |other|.
  for (const Tuple& e : edit) {
    for (const Tuple& o : other) {
      HQL_RETURN_IF_ERROR(TickGovernor());
      emit(e, o);
    }
  }
  return out;
}

Result<RelationView> DeltaPropagator::OldOf(const QueryPtr& node) {
  auto it = attempt_.entry->node_values.find(node->Fingerprint());
  if (it == attempt_.entry->node_values.end()) {
    return Status::Unimplemented(
        "incremental: node output not covered by the cached execution");
  }
  return it->second;
}

}  // namespace

Result<IncrementalAttempt> ComputeIncrementalEdits(const QueryPtr& query,
                                                   const Database& db,
                                                   IncrementalCache* cache) {
  IncrementalAttempt attempt;
  if (query == nullptr || cache == nullptr) return attempt;
  std::set<std::string> names;
  bool pure = CollectLeafNames(query, &names);
  for (const std::string& name : names) {
    HQL_ASSIGN_OR_RETURN(RelationView view, db.GetView(name));
    attempt.inputs.insert_or_assign(name, std::move(view));
  }
  attempt.entry = cache->Lookup(query->Fingerprint());
  if (attempt.entry == nullptr || !pure) return attempt;
  bool patchable = true;
  for (const auto& [name, view] : attempt.inputs) {
    auto it = attempt.entry->inputs.find(name);
    if (it == attempt.entry->inputs.end()) {
      patchable = false;
      break;
    }
    std::optional<RelationEdit> edit = OverlayEditBetween(it->second, view);
    if (!edit.has_value()) {
      // A consolidation (or a relation swap) replaced the shared base in
      // between: no O(|edit|) difference exists.
      patchable = false;
      break;
    }
    if (edit->empty()) continue;
    attempt.edit_tuples += edit->size();
    attempt.changed_relation_tuples += view.size();
    attempt.edits.insert_or_assign(name, std::move(*edit));
  }
  attempt.patchable = patchable;
  return attempt;
}

Result<RelationView> ApplyIncrementalPatch(const QueryPtr& query,
                                           const IncrementalAttempt& attempt,
                                           uint64_t new_state_fingerprint,
                                           IncrementalCache* cache) {
  if (!attempt.patchable || attempt.entry == nullptr) {
    return Status::Internal(
        "ApplyIncrementalPatch requires a patchable attempt");
  }
  HQL_FAIL_POINT(kFailPointMemoPatch);
  // An armed failpoint trips the ambient governor; surface it here before
  // touching the cached result. Without a governor the fire is only
  // counted and the patch proceeds — exactly what a production build does.
  HQL_RETURN_IF_ERROR(GovernorCheck());
  TraceSpan span("incremental-patch", attempt.edit_tuples);
  DeltaPropagator propagator(attempt);
  Result<NodeDelta> root = propagator.Propagate(query);
  if (!root.ok()) return root.status();

  auto entry = std::make_shared<IncrementalEntry>();
  entry->inputs = attempt.inputs;
  entry->node_values = propagator.TakeNodeValues();
  entry->result = root->new_view;
  entry->state_fingerprint = new_state_fingerprint;
  if (cache != nullptr) cache->Insert(query->Fingerprint(), std::move(entry));

  ExecContext& ctx = AmbientExecContext();
  ctx.Add(ExecCounter::kIncrementalResultsPatched);
  ctx.Add(ExecCounter::kIncrementalEditsPropagated,
          propagator.edits_propagated());
  span.set_rows_out(root->new_view.size());
  return root->new_view;
}

}  // namespace hql
