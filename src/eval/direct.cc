#include "eval/direct.h"

#include <utility>
#include <vector>

#include "ast/hypo.h"
#include "ast/query.h"
#include "ast/update.h"
#include "common/check.h"
#include "common/governor.h"
#include "eval/ra_eval.h"
#include "hql/free_dom.h"

namespace hql {

Result<Relation> EvalDirect(const QueryPtr& query, const Database& db) {
  if (query == nullptr) {
    return Status::InvalidArgument("EvalDirect: query must not be null");
  }
  HQL_RETURN_IF_ERROR(GovernorCheck());
  switch (query->kind()) {
    case QueryKind::kRel:
      return db.Get(query->rel_name());
    case QueryKind::kEmpty:
      return Relation(query->empty_arity());
    case QueryKind::kSingleton:
      return Relation::FromTuples(query->tuple().size(), {query->tuple()});
    case QueryKind::kSelect: {
      HQL_ASSIGN_OR_RETURN(Relation in, EvalDirect(query->left(), db));
      return FilterRelation(in, *query->predicate());
    }
    case QueryKind::kProject: {
      HQL_ASSIGN_OR_RETURN(Relation in, EvalDirect(query->left(), db));
      return ProjectRelation(in, query->columns());
    }
    case QueryKind::kAggregate: {
      HQL_ASSIGN_OR_RETURN(Relation in, EvalDirect(query->left(), db));
      return AggregateRelation(in, query->columns(), query->agg_func(),
                               query->agg_column());
    }
    case QueryKind::kUnion: {
      HQL_ASSIGN_OR_RETURN(Relation l, EvalDirect(query->left(), db));
      HQL_ASSIGN_OR_RETURN(Relation r, EvalDirect(query->right(), db));
      return l.UnionWith(r);
    }
    case QueryKind::kIntersect: {
      HQL_ASSIGN_OR_RETURN(Relation l, EvalDirect(query->left(), db));
      HQL_ASSIGN_OR_RETURN(Relation r, EvalDirect(query->right(), db));
      return l.IntersectWith(r);
    }
    case QueryKind::kProduct: {
      HQL_ASSIGN_OR_RETURN(Relation l, EvalDirect(query->left(), db));
      HQL_ASSIGN_OR_RETURN(Relation r, EvalDirect(query->right(), db));
      return l.ProductWith(r);
    }
    case QueryKind::kJoin: {
      HQL_ASSIGN_OR_RETURN(Relation l, EvalDirect(query->left(), db));
      HQL_ASSIGN_OR_RETURN(Relation r, EvalDirect(query->right(), db));
      return JoinRelations(l, r, query->predicate());
    }
    case QueryKind::kDifference: {
      HQL_ASSIGN_OR_RETURN(Relation l, EvalDirect(query->left(), db));
      HQL_ASSIGN_OR_RETURN(Relation r, EvalDirect(query->right(), db));
      return l.DifferenceWith(r);
    }
    case QueryKind::kWhen: {
      HQL_ASSIGN_OR_RETURN(Database hypo, EvalState(query->state(), db));
      return EvalDirect(query->left(), hypo);
    }
  }
  return Status::Internal("unknown query kind in EvalDirect");
}

Result<Database> ExecUpdate(const UpdatePtr& update, const Database& db) {
  if (update == nullptr) {
    return Status::InvalidArgument("ExecUpdate: update must not be null");
  }
  HQL_RETURN_IF_ERROR(GovernorCheck());
  switch (update->kind()) {
    case UpdateKind::kInsert: {
      // DB[R <- R u Q]: the update argument becomes an add-overlay on the
      // shared base — O(|arg|), never a copy of R.
      HQL_ASSIGN_OR_RETURN(Relation arg, EvalDirect(update->query(), db));
      HQL_ASSIGN_OR_RETURN(Relation base, db.Get(update->rel_name()));
      Database out = db;
      HQL_RETURN_IF_ERROR(
          out.Set(update->rel_name(), base.ApplyDelta(arg.tuples(), {})));
      return out;
    }
    case UpdateKind::kDelete: {
      // DB[R <- R - Q]: a del-overlay on the shared base.
      HQL_ASSIGN_OR_RETURN(Relation arg, EvalDirect(update->query(), db));
      HQL_ASSIGN_OR_RETURN(Relation base, db.Get(update->rel_name()));
      Database out = db;
      HQL_RETURN_IF_ERROR(
          out.Set(update->rel_name(), base.ApplyDelta({}, arg.tuples())));
      return out;
    }
    case UpdateKind::kSeq: {
      HQL_ASSIGN_OR_RETURN(Database mid, ExecUpdate(update->first(), db));
      return ExecUpdate(update->second(), mid);
    }
    case UpdateKind::kCond: {
      HQL_ASSIGN_OR_RETURN(Relation guard, EvalDirect(update->guard(), db));
      return ExecUpdate(
          guard.empty() ? update->else_branch() : update->then_branch(), db);
    }
  }
  return Status::Internal("unknown update kind in ExecUpdate");
}

Result<Database> EvalState(const HypoExprPtr& state, const Database& db) {
  if (state == nullptr) {
    return Status::InvalidArgument("EvalState: state must not be null");
  }
  HQL_RETURN_IF_ERROR(GovernorCheck());
  switch (state->kind()) {
    case HypoKind::kUpdateState:
      return ExecUpdate(state->update(), db);
    case HypoKind::kSubst: {
      // Parallel assignment: all bindings evaluate in the original state.
      std::vector<std::pair<std::string, Relation>> values;
      values.reserve(state->bindings().size());
      for (const Binding& b : state->bindings()) {
        HQL_ASSIGN_OR_RETURN(Relation v, EvalDirect(b.query, db));
        values.emplace_back(b.rel_name, std::move(v));
      }
      Database out = db;
      for (auto& [name, value] : values) {
        HQL_RETURN_IF_ERROR(out.Set(name, std::move(value)));
      }
      return out;
    }
    case HypoKind::kCompose: {
      HQL_ASSIGN_OR_RETURN(Database mid, EvalState(state->first(), db));
      return EvalState(state->second(), mid);
    }
    case HypoKind::kStateWhen: {
      // eta1's writes, computed in eta2's world, applied to the current
      // state: [eta1 when eta2](DB) = apply(DB, [eta1]xval([eta2](DB))).
      HQL_ASSIGN_OR_RETURN(Database context, EvalState(state->second(), db));
      HQL_ASSIGN_OR_RETURN(Database moved, EvalState(state->first(), context));
      Database out = db;
      for (const std::string& name : DomNames(state->first())) {
        // Move the written relation across, preserving its overlay.
        HQL_ASSIGN_OR_RETURN(Relation value, moved.Get(name));
        HQL_RETURN_IF_ERROR(out.Set(name, std::move(value)));
      }
      return out;
    }
  }
  return Status::Internal("unknown hypothetical-state kind in EvalState");
}

Result<Database> ApplySubstitution(const Substitution& subst,
                                   const Database& db) {
  std::vector<std::pair<std::string, Relation>> values;
  for (const auto& [name, query] : subst.bindings()) {
    HQL_ASSIGN_OR_RETURN(Relation v, EvalDirect(query, db));
    values.emplace_back(name, std::move(v));
  }
  Database out = db;
  for (auto& [name, value] : values) {
    HQL_RETURN_IF_ERROR(out.Set(name, std::move(value)));
  }
  return out;
}

}  // namespace hql
