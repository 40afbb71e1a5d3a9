#include "eval/filter1.h"

#include "ast/hypo.h"
#include "ast/query.h"
#include "common/check.h"
#include "common/governor.h"
#include "eval/ra_eval.h"
#include "hql/enf.h"

namespace hql {

namespace {

// Results flow through the recursion as copy-on-write relations: leaf scans
// and environment lookups are refcount bumps, only operator outputs
// allocate.
Result<Relation> F1(const QueryPtr& q, const Database& db,
                    const XsubValue& env) {
  HQL_RETURN_IF_ERROR(GovernorCheck());
  switch (q->kind()) {
    case QueryKind::kRel: {
      if (const Relation* bound = env.Get(q->rel_name())) {
        return bound->SharedCopy();
      }
      return db.Get(q->rel_name());
    }
    case QueryKind::kEmpty:
      return Relation(q->empty_arity());
    case QueryKind::kSingleton:
      return Relation::FromTuples(q->tuple().size(), {q->tuple()});
    case QueryKind::kSelect: {
      HQL_ASSIGN_OR_RETURN(Relation in, F1(q->left(), db, env));
      return FilterRelation(in, *q->predicate());
    }
    case QueryKind::kProject: {
      HQL_ASSIGN_OR_RETURN(Relation in, F1(q->left(), db, env));
      return ProjectRelation(in, q->columns());
    }
    case QueryKind::kAggregate: {
      HQL_ASSIGN_OR_RETURN(Relation in, F1(q->left(), db, env));
      return AggregateRelation(in, q->columns(), q->agg_func(),
                               q->agg_column());
    }
    case QueryKind::kUnion: {
      HQL_ASSIGN_OR_RETURN(Relation l, F1(q->left(), db, env));
      HQL_ASSIGN_OR_RETURN(Relation r, F1(q->right(), db, env));
      return l.UnionWith(r);
    }
    case QueryKind::kIntersect: {
      HQL_ASSIGN_OR_RETURN(Relation l, F1(q->left(), db, env));
      HQL_ASSIGN_OR_RETURN(Relation r, F1(q->right(), db, env));
      return l.IntersectWith(r);
    }
    case QueryKind::kProduct: {
      // HQL-1 materializes the full product — deliberately no clustering.
      HQL_ASSIGN_OR_RETURN(Relation l, F1(q->left(), db, env));
      HQL_ASSIGN_OR_RETURN(Relation r, F1(q->right(), db, env));
      return l.ProductWith(r);
    }
    case QueryKind::kJoin: {
      HQL_ASSIGN_OR_RETURN(Relation l, F1(q->left(), db, env));
      HQL_ASSIGN_OR_RETURN(Relation r, F1(q->right(), db, env));
      // One node = one operation: the join itself is a single algebraic
      // operator, so evaluating it as such is within HQL-1's discipline.
      return JoinRelations(l, r, q->predicate());
    }
    case QueryKind::kDifference: {
      HQL_ASSIGN_OR_RETURN(Relation l, F1(q->left(), db, env));
      HQL_ASSIGN_OR_RETURN(Relation r, F1(q->right(), db, env));
      return l.DifferenceWith(r);
    }
    case QueryKind::kWhen: {
      const HypoExprPtr& state = q->state();
      if (state->kind() != HypoKind::kSubst) {
        return Status::InvalidArgument(
            "Filter1 requires an ENF query: " + q->ToString());
      }
      // filter1(e, E): materialize the substitution under the current env.
      XsubValue e_val;
      for (const Binding& b : state->bindings()) {
        HQL_ASSIGN_OR_RETURN(Relation v, F1(b.query, db, env));
        e_val.Bind(b.rel_name, std::move(v));
      }
      return F1(q->left(), db, env.SmashWith(e_val));
    }
  }
  return Status::Internal("unknown query kind in Filter1");
}

}  // namespace

Result<Relation> RunFilter1(const QueryPtr& query, const Database& db,
                            const Filter1Options& options) {
  if (query == nullptr) {
    return Status::InvalidArgument("Filter1: query must not be null");
  }
  // An explicit env is a worker invocation over a subtree; only the
  // top-level no-env form demands the full ENF shape.
  if (options.env == nullptr && !IsEnf(query)) {
    return Status::InvalidArgument("Filter1 requires an ENF query");
  }
  const XsubValue empty;
  HQL_ASSIGN_OR_RETURN(
      Relation out,
      F1(query, db, options.env != nullptr ? *options.env : empty));
  HQL_RETURN_IF_ERROR(GovernorCheck());
  return out;
}

}  // namespace hql
