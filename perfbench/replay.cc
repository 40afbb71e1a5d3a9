#include "replay.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "ast/hypo.h"
#include "ast/metrics.h"
#include "ast/query.h"
#include "common/check.h"
#include "hql/enf.h"
#include "hql/ra_rewrite.h"
#include "opt/engine.h"
#include "opt/planner.h"
#include "parser/parser.h"
#include "server/wire.h"
#include "storage/stats.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using hql::HypoExprPtr;
using hql::QueryPtr;

double MicrosSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return (h ^ 0xff) * 1099511628211ull;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// The benchmark's own copy of a connection's scenario tree, built from the
/// edges it sent, so it can compose `Q when path` the way Session does.
class TreeModel {
 public:
  void Apply(const hql::WireRequest& req, const HypoExprPtr& edge) {
    if (req.op == "derive") {
      nodes_[req.args[1]] = Node{req.args[0], edge};
    } else if (req.op == "edit") {
      nodes_[req.args[0]].edge = edge;
    } else if (req.op == "drop") {
      std::vector<std::string> doomed = {req.args[0]};
      for (size_t i = 0; i < doomed.size(); ++i) {
        for (const auto& [name, node] : nodes_) {
          if (node.parent == doomed[i]) doomed.push_back(name);
        }
      }
      for (const std::string& name : doomed) nodes_.erase(name);
    }
  }

  void Clear() { nodes_.clear(); }

  /// The composition of the edges on the path root -> `name` (null at the
  /// root), outermost edge first, as Session::PathState builds it.
  HypoExprPtr PathState(const std::string& name) const {
    HypoExprPtr state;
    for (std::string cur = name; cur != "root";) {
      const Node& node = nodes_.at(cur);
      state = state == nullptr ? node.edge
                               : hql::HypoExpr::Compose(node.edge, state);
      cur = node.parent;
    }
    return state;
  }

  QueryPtr At(const std::string& name, const QueryPtr& q) const {
    HypoExprPtr state = PathState(name);
    return state == nullptr ? q : hql::Query::When(q, state);
  }

 private:
  struct Node {
    std::string parent;
    HypoExprPtr edge;
  };
  std::map<std::string, Node> nodes_;
};

/// Layer times of one request, filled by Handle when tracing.
struct Layers {
  Clock::time_point last;
  double wire_parse_us = 0;
  double parse_us = 0;
  double query_us = 0;
  double write_us = 0;
  double hash_us = 0;
  double encode_us = 0;
  double free_us = 0;

  void Lap(double Layers::*field) {
    Clock::time_point now = Clock::now();
    this->*field += MicrosSince(last, now);
    last = now;
  }
};

/// One request line -> one response line, following HqlServer::Dispatch
/// for the ops the workloads send. With `layers`, each step is timed.
std::string Handle(hql::Engine& engine, hql::Session& session,
                   const std::string& line, Layers* layers) {
  auto lap = [layers](double Layers::*field) {
    if (layers != nullptr) layers->Lap(field);
  };
  auto parsed = hql::ParseWireRequest(line);
  lap(&Layers::wire_parse_us);
  if (!parsed.ok()) return hql::WireResponse::Error(parsed.status());
  const hql::WireRequest& req = parsed.value();

  if (req.op == "ping") {
    std::string out = std::move(
        hql::WireResponse(true)
            .AddString("server", "hql")
            .AddNumber("protocol", 1)
            .AddNumber("sessions",
                       static_cast<double>(engine.live_sessions())))
                          .Finish();
    lap(&Layers::encode_us);
    return out;
  }
  if (req.op == "derive" || req.op == "edit") {
    auto edge = hql::ParseHypo(req.tail);
    lap(&Layers::parse_us);
    if (!edge.ok()) return hql::WireResponse::Error(edge.status());
    hql::Status st = req.op == "derive"
                         ? session.Derive(req.args[0], req.args[1], *edge)
                         : session.Edit(req.args[0], *edge);
    lap(&Layers::write_us);
    if (!st.ok()) return hql::WireResponse::Error(st);
    hql::WireResponse r(true);
    if (req.op == "derive") {
      r.AddNumber("nodes", static_cast<double>(session.NumNodes()));
    }
    std::string out = std::move(r).Finish();
    lap(&Layers::encode_us);
    return out;
  }
  if (req.op == "drop") {
    hql::Status st = session.Drop(req.args[0]);
    lap(&Layers::write_us);
    if (!st.ok()) return hql::WireResponse::Error(st);
    std::string out =
        std::move(hql::WireResponse(true).AddNumber(
                      "nodes", static_cast<double>(session.NumNodes())))
            .Finish();
    lap(&Layers::encode_us);
    return out;
  }
  if (req.op == "nodes") {
    std::vector<hql::ScenarioInfo> nodes = session.Nodes();
    lap(&Layers::query_us);
    std::string arr = "[";
    bool first = true;
    for (const hql::ScenarioInfo& info : nodes) {
      if (!first) arr += ',';
      first = false;
      arr += std::move(hql::WireResponse(true)
                           .AddString("name", info.name)
                           .AddString("parent", info.parent)
                           .AddBool("materialized", info.materialized))
                 .Finish();
    }
    arr += ']';
    std::string out =
        std::move(hql::WireResponse(true).AddRaw("nodes", arr)).Finish();
    lap(&Layers::encode_us);
    return out;
  }
  if (req.op == "query" || req.op == "fetch" || req.op == "compare") {
    auto query = hql::ParseQuery(req.tail);
    lap(&Layers::parse_us);
    if (!query.ok()) return hql::WireResponse::Error(query.status());
    hql::Result<hql::Relation> out =
        req.op == "compare"
            ? session.Compare(req.args[0], req.args[1], query.value())
            : session.Query(req.args[0], query.value());
    lap(&Layers::query_us);
    if (!out.ok()) return hql::WireResponse::Error(out.status());
    out->Hash();
    lap(&Layers::hash_us);
    hql::WireResponse r(true);
    r.AddRelationSummary(out.value());
    if (req.op == "fetch") r.AddTuples(out.value());
    std::string line_out = std::move(r).Finish();
    lap(&Layers::encode_us);
    { hql::Relation released = std::move(out).value(); }
    lap(&Layers::free_us);
    return line_out;
  }
  return hql::WireResponse::Error(
      hql::Status::Internal("op not replayed: " + req.op));
}

Answer AnswerOfLine(const std::string& response) {
  auto doc = hql::ParseJson(response);
  return doc.ok() ? AnswerOf(**doc) : Answer{};
}

hql::SessionPtr NewSession(hql::Engine& engine, bool traced) {
  auto session = engine.CreateSession("replay");
  HQL_CHECK_MSG(session.ok(), session.status().ToString().c_str());
  (*session)->exec_context().set_tracing(traced);
  return std::move(session).value();
}

/// The probes: the composed query's size, and the rewriting and planning
/// steps Session::Query runs inside, re-run here on their own.
void Probe(const QueryPtr& composed, hql::Session& session,
           ReplayTotals* totals) {
  hql::Database base = session.BaseSnapshot();
  const hql::Schema& schema = base.schema();
  totals->tree_size += hql::TreeSize(composed);

  Clock::time_point t0 = Clock::now();
  auto enf = hql::ToEnf(composed, schema);
  Clock::time_point t1 = Clock::now();
  auto simplified = hql::SimplifyMixed(composed, schema);
  Clock::time_point t2 = Clock::now();
  hql::PlannerOptions planner = session.PlannerConfig();
  hql::StatsCatalog stats = hql::StatsCatalog::FromDatabase(base);
  auto plan = hql::PlanHybrid(composed, schema, stats, planner);
  Clock::time_point t3 = Clock::now();
  HQL_CHECK(enf.ok() && simplified.ok() && plan.ok());

  totals->enf_us += MicrosSince(t0, t1);
  totals->simplify_us += MicrosSince(t1, t2);
  totals->plan_us += MicrosSince(t2, t3);
}

void Charge(const hql::ExecStats& stats, ReplayTotals* totals) {
  for (const hql::OperatorSpan& span : stats.spans) {
    totals->operator_us += static_cast<double>(span.micros);
  }
  totals->memo_hits += stats.memo_hits;
  totals->memo_misses += stats.memo_misses;
  totals->patched += stats.incremental_results_patched;
  totals->patch_fallbacks += stats.incremental_fallbacks;
  totals->rows_vectorized += stats.columnar_rows_vectorized;
  totals->tuples_copied += stats.view_tuples_copied;
  if (stats.route == "hybrid-lazy") ++totals->route_lazy;
  if (stats.route == "hybrid-delta") ++totals->route_delta;
  if (stats.route == "hybrid-eager") ++totals->route_eager;
}

/// One engine with one session per connection. The untraced and the traced
/// lane run each request back to back, so neither inherits a warmer
/// allocator or memo cache from the other.
class Lane {
 public:
  Lane(const Workload& workload, uint64_t seed, size_t conns, bool traced)
      : engine_(workload.make_base(seed), FastProfile()), traced_(traced) {
    for (size_t c = 0; c < conns; ++c) {
      sessions_.push_back(NewSession(engine_, traced_));
    }
    totals_.request_us.resize(conns);
  }

  void StartLoop() { memo_before_ = engine_.memo().stats(); }

  /// Runs one request of connection `c`. Only loop requests are measured.
  void Step(size_t c, const Request& r, const hql::WireRequest& req,
            const TreeModel& tree, bool in_loop, const Answer& expected) {
    hql::SessionPtr& session = sessions_[c];
    if (r.reconnect) {
      session.reset();
      session = NewSession(engine_, traced_);
    }
    Layers layers;
    Clock::time_point start = Clock::now();
    layers.last = start;
    std::string response =
        Handle(engine_, *session, r.line, traced_ ? &layers : nullptr);
    double window = MicrosSince(start, Clock::now());

    Answer answer = AnswerOfLine(response);
    if (!(answer == expected)) {
      ++totals_.mismatches;
      std::fprintf(stderr, "replay mismatch, connection %zu: %s\n", c,
                   r.line.c_str());
    }
    if (!in_loop) {
      session->exec_context().Reset();
      return;
    }
    ++totals_.requests;
    totals_.window_us += window;
    totals_.request_us[c].push_back(window);
    if (!traced_) return;

    totals_.wire_parse_us += layers.wire_parse_us;
    totals_.parse_us += layers.parse_us;
    totals_.query_us += layers.query_us;
    totals_.write_us += layers.write_us;
    totals_.hash_us += layers.hash_us;
    totals_.encode_us += layers.encode_us;
    totals_.free_us += layers.free_us;
    Charge(session->Stats(), &totals_);
    session->exec_context().Reset();
    if (req.op == "query" || req.op == "fetch" || req.op == "compare") {
      ++totals_.reads;
      totals_.result_rows += answer.rows;
      QueryPtr q = hql::ParseQuery(req.tail).value();
      QueryPtr composed =
          req.op == "compare"
              ? hql::Query::Difference(tree.At(req.args[0], q),
                                       tree.At(req.args[1], q))
              : tree.At(req.args[0], q);
      Probe(composed, *session, &totals_);
    }
  }

  ReplayTotals Finish() {
    hql::MemoCache::Stats after = engine_.memo().stats();
    totals_.memo_evictions = after.evictions - memo_before_.evictions;
    totals_.memo_cached_tuples = after.cached_tuples;
    return std::move(totals_);
  }

 private:
  hql::Engine engine_;
  const bool traced_;
  std::vector<hql::SessionPtr> sessions_;
  ReplayTotals totals_;
  hql::MemoCache::Stats memo_before_{};
};

}  // namespace

Answer AnswerOf(const hql::JsonValue& doc) {
  Answer a;
  hql::JsonPtr ok = doc.Get("ok");
  a.ok = ok != nullptr && ok->is_bool() && ok->bool_value();
  if (!a.ok) return a;
  hql::JsonPtr hash = doc.Get("hash");
  if (hash != nullptr && hash->is_string()) {
    a.rows = static_cast<uint64_t>(doc.Get("rows")->number());
    a.hash = std::stoull(hash->string_value());
    hql::JsonPtr tuples = doc.Get("tuples");
    if (tuples != nullptr && tuples->items().size() != a.rows) a.ok = false;
    return a;
  }
  hql::JsonPtr nodes = doc.Get("nodes");
  if (nodes != nullptr && nodes->is_array()) {
    a.hash = kFnvBasis;
    for (const hql::JsonPtr& n : nodes->items()) {
      a.hash = Fnv(Fnv(a.hash, n->Get("name")->string_value()),
                   n->Get("parent")->string_value());
    }
    a.rows = nodes->items().size();
  }
  return a;
}

DirectCheck CheckDirect(const Workload& workload, uint64_t seed, int conn,
                        const Recorded& recorded, size_t samples) {
  DirectCheck check;
  hql::EngineOptions options;
  options.strategy = hql::Strategy::kDirect;
  options.memo = false;
  hql::Engine mirror(workload.make_base(seed), options);
  hql::SessionPtr session = NewSession(mirror, false);
  std::unique_ptr<Stream> stream = workload.make_stream(seed, conn);

  const size_t prologue = stream->prologue().size();
  const size_t loop = recorded.loop_requests();
  if (samples == 0 || loop == 0) return check;
  const size_t total = prologue + loop;
  size_t next_sample = 0;
  auto sample_at = [&](size_t j) {
    return prologue + (2 * j + 1) * loop / (2 * samples);
  };

  for (size_t i = 0; i < total && next_sample < samples; ++i) {
    Request r = i < prologue ? stream->prologue()[i] : stream->Next();
    if (r.reconnect) session = NewSession(mirror, false);
    if (r.cls == OpClass::kWrite) {
      Answer expected = AnswerOfLine(Handle(mirror, *session, r.line, nullptr));
      if (!(expected == recorded.answers[i])) ++check.mismatches;
      continue;
    }
    if (i < sample_at(next_sample)) continue;
    Answer expected = AnswerOfLine(Handle(mirror, *session, r.line, nullptr));
    ++check.checked;
    ++next_sample;
    if (!(expected == recorded.answers[i])) {
      ++check.mismatches;
      std::fprintf(stderr, "direct mismatch, connection %d request %zu: %s\n",
                   conn, i, r.line.c_str());
    }
  }
  return check;
}

ReplayResult Replay(const Workload& workload, uint64_t seed,
                    const std::vector<Recorded>& recorded, size_t per_conn) {
  Lane untraced(workload, seed, recorded.size(), false);
  Lane traced(workload, seed, recorded.size(), true);

  struct Conn {
    std::unique_ptr<Stream> stream;
    TreeModel tree;
    size_t prologue = 0;
    size_t total = 0;
    size_t next = 0;
  };
  std::vector<Conn> conns(recorded.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    Conn& conn = conns[c];
    conn.stream = workload.make_stream(seed, static_cast<int>(c));
    conn.prologue = conn.stream->prologue().size();
    conn.total =
        conn.prologue + std::min(per_conn, recorded[c].loop_requests());
  }

  // Round-robin over the connections: prologues first, then loop requests.
  bool loop_started = false;
  size_t steps = 0;
  for (bool any = true; any;) {
    any = false;
    bool all_in_loop = true;
    for (const Conn& conn : conns) {
      if (conn.next < conn.prologue) all_in_loop = false;
    }
    if (all_in_loop && !loop_started) {
      loop_started = true;
      untraced.StartLoop();
      traced.StartLoop();
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (conn.next >= conn.total) continue;
      if (!all_in_loop && conn.next >= conn.prologue) continue;
      any = true;
      const size_t i = conn.next++;
      const bool in_loop = i >= conn.prologue;
      Request r = in_loop ? conn.stream->Next() : conn.stream->prologue()[i];
      auto parsed = hql::ParseWireRequest(r.line);
      HQL_CHECK(parsed.ok());
      const hql::WireRequest& req = parsed.value();
      if (r.reconnect) conn.tree.Clear();
      const Answer& expected = recorded[c].answers[i];
      // Alternate which lane goes first: the second finds the code and the
      // request's data warm in the CPU caches.
      Lane& first = steps % 2 == 0 ? untraced : traced;
      Lane& second = steps % 2 == 0 ? traced : untraced;
      ++steps;
      first.Step(c, r, req, conn.tree, in_loop, expected);
      second.Step(c, r, req, conn.tree, in_loop, expected);
      HypoExprPtr edge;
      if (req.op == "derive" || req.op == "edit") {
        edge = hql::ParseHypo(req.tail).value();
      }
      conn.tree.Apply(req, edge);
    }
  }
  return ReplayResult{untraced.Finish(), traced.Finish()};
}

}  // namespace perfbench
