#include "workloads.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using hql::Database;
using hql::Rng;
using hql::Schema;

std::string Num(int64_t v) { return std::to_string(v); }

uint64_t StreamSeed(const char* workload, uint64_t seed, int conn) {
  uint64_t h = 1469598103934665603ull;
  for (const char* p = workload; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ull;
  }
  return h ^ (seed * 0x9e3779b97f4a7c15ull) ^
         (static_cast<uint64_t>(conn + 1) * 0xc2b2ae3d27d4eb4full);
}

Database MakeRS(uint64_t seed, size_t rows, int64_t key_domain) {
  Schema schema;
  HQL_CHECK(schema.AddRelation("R", 2).ok());
  HQL_CHECK(schema.AddRelation("S", 2).ok());
  Rng rng(seed);
  Database db(schema);
  HQL_CHECK(db.Set("R", hql::GenRelation(&rng, rows, 2, key_domain)).ok());
  HQL_CHECK(db.Set("S", hql::GenRelation(&rng, rows, 2, key_domain)).ok());
  return db;
}

// ---------------------------------------------------------------------------
// family_read: Example 2.1 / E9. One expensive shared edge under the root
// and eight cheap leaves below it; reads only after warm-up, so the memo
// cache serves every operator result and the time goes to materializing,
// hashing and encoding results. At 100k rows per relation the copies of
// cached results ran from DRAM and their speed drifted by a fifth between
// runs; at 30k the benchmark's spread is about half that.

constexpr size_t kFamilyRows = 30000;
constexpr int64_t kFamilyDomain = 60000;
constexpr int kFamilyLeaves = 8;
// Every tenth loop request derives or drops a scratch leaf that is never
// queried: it gives the workload a write latency without touching a state
// any read depends on.
constexpr int kFamilyWriteEvery = 10;

// The queries by cost class, cheapest first, with the share of `query`
// requests each gets. Compares are cheap (the leaves differ by one key
// window), so the cheap class holds 30% of reads, the band select the next
// 40% and the read median falls in the middle of the band select's class;
// read p99 falls in the join's class, at its 90th percentile.
const std::string kFamilyQueries[] = {
    "gamma[; sum(1)](R)",
    "sigma[$0 >= " + Num(kFamilyDomain / 2) + " and $0 < " +
        Num(kFamilyDomain / 2 + kFamilyDomain / 20) + "](R)",
    "gamma[1; count(0)](sigma[$0 < " + Num(kFamilyDomain / 4) + "](R))",
    "R join[$0 = $2] S",
};
constexpr int kFamilyQueryPercent[] = {12, 50, 25, 13};

std::string FamilyLeafEdge(int64_t lo) {
  int64_t window = kFamilyDomain / 32;
  return "{del(R, sigma[$0 >= " + Num(lo) + " and $0 < " + Num(lo + window) +
         "](R))}";
}

class FamilyReadStream : public Stream {
 public:
  explicit FamilyReadStream(uint64_t seed) : rng_(seed) {
    prologue_.push_back(
        {"derive root shared {del(S, sigma[$0 < " + Num(kFamilyDomain / 2) +
             "](S))} # {ins(R, pi[0,1](S join[$0 = $2] S))}",
         OpClass::kWrite});
    for (int i = 0; i < kFamilyLeaves; ++i) {
      prologue_.push_back({"derive shared " + Leaf(i) + " " +
                               FamilyLeafEdge(i * (kFamilyDomain / 8)),
                           OpClass::kWrite});
    }
    // Warm-up: every (leaf, query) and (leaf pair, query) the loop asks.
    for (int i = 0; i < kFamilyLeaves; ++i) {
      for (const std::string& q : kFamilyQueries) {
        prologue_.push_back({"query " + Leaf(i) + " " + q, OpClass::kRead});
        prologue_.push_back(
            {"compare " + Leaf(i) + " " + Leaf((i + 1) % kFamilyLeaves) + " " +
                 q,
             OpClass::kRead});
      }
    }
  }

  Request Next() override {
    if (++count_ % kFamilyWriteEvery == 0) {
      scratch_live_ = !scratch_live_;
      if (!scratch_live_) return {"drop scratch", OpClass::kWrite};
      return {"derive shared scratch " +
                  FamilyLeafEdge(rng_.Uniform(0, kFamilyDomain - 1)),
              OpClass::kWrite};
    }
    int leaf = static_cast<int>(rng_.Uniform(0, kFamilyLeaves - 1));
    const std::string& q = kFamilyQueries[PickQuery()];
    if (rng_.Bernoulli(0.8)) {
      return {"query " + Leaf(leaf) + " " + q, OpClass::kRead};
    }
    return {"compare " + Leaf(leaf) + " " + Leaf((leaf + 1) % kFamilyLeaves) +
                " " + q,
            OpClass::kRead};
  }

 private:
  static std::string Leaf(int i) { return "leaf" + std::to_string(i); }

  int PickQuery() {
    int64_t roll = rng_.Uniform(0, 99);
    int q = 0;
    while (roll >= kFamilyQueryPercent[q]) roll -= kFamilyQueryPercent[q++];
    return q;
  }

  Rng rng_;
  uint64_t count_ = 0;
  bool scratch_live_ = false;
};

// ---------------------------------------------------------------------------
// edit_reask: E14's queries asked through sessions. Every edit gives the
// chain's tail a new state fingerprint, so the working set overflows the
// memo cache and operator kernels, incremental patching and the rewriting
// of depth-8 paths do the work.

constexpr size_t kEditRows = 10000;
constexpr int64_t kEditDomain = 40000;
constexpr int kEditDepth = 8;
constexpr int kEditWarmupRounds = 5;

const char* const kEditQueries[] = {
    "pi[1](sigma[$0 >= 20000 and $0 < 22000](R))",
    "R join[$0 = $2] S",
    "(pi[0,1](sigma[$0 >= 10000 and $0 < 12000](R)) union S) - "
    "sigma[$0 < 4000](S)",
};

class EditReaskStream : public Stream {
 public:
  explicit EditReaskStream(uint64_t seed) : rng_(seed) {
    for (int k = 1; k <= kEditDepth; ++k) {
      prologue_.push_back({"derive " + Node(k - 1) + " " + Node(k) + " " +
                               InsertEdge(),
                           OpClass::kWrite});
    }
    // Warm-up asks each query equally often, so set-up cost does not
    // depend on the seed's query mix.
    for (int i = 0; i < 3 * kEditWarmupRounds; ++i) {
      prologue_.push_back(Edit());
      prologue_.push_back(Reask(i % 3));
    }
  }

  Request Next() override {
    edit_next_ = !edit_next_;
    return edit_next_ ? Edit() : Reask(rng_.Uniform(0, 2));
  }

 private:
  static std::string Node(int k) { return k == 0 ? "root" : "n" + Num(k); }

  Request Edit() {
    return {"edit " + Node(static_cast<int>(rng_.Uniform(1, kEditDepth))) +
                " " + InsertEdge(),
            OpClass::kWrite};
  }

  Request Reask(int64_t query) {
    return {"query " + Node(kEditDepth) + " " + kEditQueries[query],
            OpClass::kRead};
  }

  std::string InsertEdge() {
    int64_t v = rng_.Uniform(0, kEditDomain - 1);
    int64_t w = rng_.Uniform(0, 999);
    return "{ins(R, {(" + Num(v) + ", " + Num(w) + ")})}";
  }

  Rng rng_;
  bool edit_next_ = false;
};

// ---------------------------------------------------------------------------
// wire_churn: tiny requests over a soak-sized base. Kernels are negligible,
// so the server, the parsers, session bookkeeping and connection set-up
// dominate. The tree is bounded (at most 16 live nodes) because `nodes`
// latency grows with the tree.

constexpr size_t kChurnRows = 48;
constexpr int64_t kChurnDomain = 64;
constexpr int kChurnSessionRequests = 200;
constexpr size_t kChurnMaxDerived = 15;
constexpr int kChurnWarmup = 1000;

class WireChurnStream : public Stream {
 public:
  WireChurnStream(uint64_t seed, int conn) : rng_(seed), conn_(conn) {
    for (int i = 0; i < kChurnWarmup; ++i) prologue_.push_back(Next());
  }

  Request Next() override {
    if (session_requests_ == kChurnSessionRequests) {
      session_requests_ = 0;
      ++session_;
      derived_.clear();
      return {"ping", OpClass::kRead, /*reconnect=*/true};
    }
    ++session_requests_;
    // Reads by cost: nodes < query < fetch. Fetch is more than half of the
    // reads, so the read median falls inside the fetch class rather than on
    // the edge between query and fetch.
    int64_t roll = rng_.Uniform(0, 99);
    if (roll < 20) return TreeOp();
    if (roll < 70) {
      return {"fetch " + RandomNode() + " A2 join[$0 = $2] B2", OpClass::kRead};
    }
    if (roll < 90) return {"query root sigma[$0 >= 3](A3)", OpClass::kRead};
    return {"nodes", OpClass::kRead};
  }

 private:
  struct Derived {
    std::string name;
    std::string parent;
  };

  std::string RandomNode() {
    int64_t pick = rng_.Uniform(0, static_cast<int64_t>(derived_.size()));
    return pick == 0 ? "root" : derived_[static_cast<size_t>(pick - 1)].name;
  }

  Request TreeOp() {
    bool derive = derived_.empty() ||
                  (derived_.size() < kChurnMaxDerived && rng_.Bernoulli(0.5));
    if (derive) {
      std::string parent = RandomNode();
      std::string child = "c" + Num(conn_) + "s" + Num(session_) + "n" +
                          Num(static_cast<int64_t>(next_id_++));
      derived_.push_back({child, parent});
      return {"derive " + parent + " " + child + " " + RandomEdge(),
              OpClass::kWrite};
    }
    size_t victim = static_cast<size_t>(
        rng_.Uniform(0, static_cast<int64_t>(derived_.size()) - 1));
    std::string name = derived_[victim].name;
    // Drop takes the subtree: children always follow their parent.
    std::vector<std::string> doomed = {name};
    std::vector<Derived> kept;
    for (const Derived& d : derived_) {
      if (std::find(doomed.begin(), doomed.end(), d.name) != doomed.end()) {
        continue;
      }
      if (std::find(doomed.begin(), doomed.end(), d.parent) != doomed.end()) {
        doomed.push_back(d.name);
        continue;
      }
      kept.push_back(d);
    }
    derived_ = std::move(kept);
    return {"drop " + name, OpClass::kWrite};
  }

  std::string RandomEdge() {
    int64_t v = rng_.Uniform(0, kChurnDomain - 1);
    int64_t w = rng_.Uniform(0, kChurnDomain - 1);
    switch (rng_.Uniform(0, 4)) {
      case 0:
        return "{ins(A1, {(" + Num(v) + ")})}";
      case 1:
        return "{del(A1, {(" + Num(v) + ")})}";
      case 2:
        return "{ins(A2, {(" + Num(v) + ", " + Num(w) + ")})}";
      case 3:
        return "{del(B2, sigma[$0 >= " + Num(v) + "](B2))}";
      default:
        return "{ins(B1, pi[0](A2))}";
    }
  }

  Rng rng_;
  int conn_;
  int session_ = 0;
  int session_requests_ = 0;
  uint64_t next_id_ = 0;
  std::vector<Derived> derived_;
};

// ---------------------------------------------------------------------------

Database FamilyBase(uint64_t seed) {
  return MakeRS(seed, kFamilyRows, kFamilyDomain);
}
Database EditBase(uint64_t seed) { return MakeRS(seed, kEditRows, kEditDomain); }
// The soak's schema and value domain, but a fixed 48 rows per relation:
// RandomDatabase draws each relation's size, which would make the cost of
// every request depend on the seed.
Database ChurnBase(uint64_t seed) {
  Rng rng(seed);
  Database db(hql::PropertySchema());
  for (const auto& [name, arity] : db.schema().arities()) {
    HQL_CHECK(db.Set(name, hql::GenRelation(&rng, kChurnRows, arity,
                                            kChurnDomain, kChurnDomain))
                  .ok());
  }
  return db;
}

std::unique_ptr<Stream> FamilyStream(uint64_t seed, int conn) {
  return std::make_unique<FamilyReadStream>(
      StreamSeed("family_read", seed, conn));
}
std::unique_ptr<Stream> EditStream(uint64_t seed, int conn) {
  return std::make_unique<EditReaskStream>(StreamSeed("edit_reask", seed, conn));
}
std::unique_ptr<Stream> ChurnStream(uint64_t seed, int conn) {
  return std::make_unique<WireChurnStream>(StreamSeed("wire_churn", seed, conn),
                                           conn);
}

const Workload kWorkloads[] = {
    {"family_read", 2, 9, 20000, 300, 2, FamilyBase, FamilyStream},
    {"edit_reask", 2, 15, 3000, 300, 4, EditBase, EditStream},
    {"wire_churn", 2, 21, 100000, 10000, 16, ChurnBase, ChurnStream},
};

}  // namespace

hql::EngineOptions FastProfile() {
  auto options = hql::EngineOptions::Profile("fast");
  HQL_CHECK(options.ok());
  return options.value();
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    if (!out.empty()) out += "|";
    out += w.name;
  }
  return out;
}

uint64_t StreamHash(const Workload& workload, uint64_t seed, int conn,
                    size_t count) {
  std::unique_ptr<Stream> stream = workload.make_stream(seed, conn);
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const Request& r) {
    for (char c : r.line) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    h = (h ^ (r.reconnect ? '\r' : '\n')) * 1099511628211ull;
  };
  for (const Request& r : stream->prologue()) mix(r);
  for (size_t i = 0; i < count; ++i) mix(stream->Next());
  return h;
}

}  // namespace perfbench
