#include "eval/filter2.h"

#include "common/check.h"
#include "common/governor.h"
#include "eval/ra_eval.h"
#include "hql/enf.h"

namespace hql {

namespace {

// Resolves base names through the xsub environment, falling back to the
// database (the "filtering" of eval_filter_x).
class XsubResolver : public RelResolver {
 public:
  XsubResolver(const Database& db, const XsubValue& env)
      : db_(&db), env_(&env) {}

  Result<Relation> Resolve(const std::string& name) const override {
    if (const Relation* bound = env_->Get(name)) return bound->SharedCopy();
    return db_->Get(name);
  }

 private:
  const Database* db_;
  const XsubValue* env_;
};

Result<Relation> F2(const CollapsedPtr& node, const Database& db,
                    const XsubValue& env) {
  HQL_RETURN_IF_ERROR(GovernorCheck());
  if (node->kind == CollapsedKind::kBlock) {
    XsubResolver base(db, env);
    OverlayResolver resolver(base);
    for (size_t i = 0; i < node->holes.size(); ++i) {
      HQL_ASSIGN_OR_RETURN(Relation hole, F2(node->holes[i], db, env));
      resolver.Bind(PlaceholderName(i), std::move(hole));
    }
    return EvalRa(node->block, resolver);
  }
  // kWhen.
  if (node->state_is_update) {
    return Status::InvalidArgument(
        "Filter2 evaluates ENF trees; update states (mod-ENF) are the "
        "domain of Filter3");
  }
  XsubValue e_val;
  for (const CollapsedBinding& b : node->bindings) {
    HQL_ASSIGN_OR_RETURN(Relation v, F2(b.value, db, env));
    e_val.Bind(b.rel_name, std::move(v));
  }
  return F2(node->input, db, env.SmashWith(e_val));
}

}  // namespace

Result<Relation> RunFilter2(const QueryPtr& query, const Database& db,
                            const Schema& schema,
                            const Filter2Options& options) {
  CollapsedPtr tree = options.collapsed;
  if (tree == nullptr) {
    if (query == nullptr) {
      return Status::InvalidArgument("Filter2: query must not be null");
    }
    if (!IsEnf(query)) {
      return Status::InvalidArgument("Filter2 requires an ENF query");
    }
    HQL_ASSIGN_OR_RETURN(tree, Collapse(query, schema));
  }
  const XsubValue empty;
  HQL_ASSIGN_OR_RETURN(
      Relation out,
      F2(tree, db, options.env != nullptr ? *options.env : empty));
  HQL_RETURN_IF_ERROR(GovernorCheck());
  return out;
}

}  // namespace hql
