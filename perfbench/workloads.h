#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three session workloads. Each connection's request stream
// is a pure function of (workload, seed, connection index): the timed
// loopback run, the kDirect mirror and the traced in-process replay all
// regenerate it and see identical request lines. The server receives only
// those lines.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "opt/engine.h"
#include "storage/database.h"

namespace perfbench {

enum class OpClass { kRead, kWrite };

struct Request {
  std::string line;
  OpClass cls = OpClass::kRead;
  /// Close the connection (`quit`) and open a new one, hence a new server
  /// session with an empty scenario tree, before sending `line`.
  bool reconnect = false;
};

class Stream {
 public:
  virtual ~Stream() = default;
  /// The requests set-up issues: the scenario tree, then warm-up.
  const std::vector<Request>& prologue() const { return prologue_; }
  /// The next request of the timed closed loop (the stream is unbounded).
  virtual Request Next() = 0;

 protected:
  std::vector<Request> prologue_;
};

struct Workload {
  const char* name;
  int connections;
  /// Set-ups per --trace 0 run; setup_s is their median. Cheap set-ups
  /// repeat more, so that their median is as steady as a costly one's.
  int setup_repeats;
  /// Loop requests (all connections) after which peak RSS is read, so a
  /// faster build is not charged with the memory of more requests.
  size_t rss_after;
  /// Loop requests per connection the traced replay re-executes in process.
  size_t replay_per_conn;
  /// Reads per connection checked against a Strategy::kDirect mirror.
  size_t direct_checks_per_conn;
  hql::Database (*make_base)(uint64_t seed);
  std::unique_ptr<Stream> (*make_stream)(uint64_t seed, int conn);
};

/// The engine options every workload runs under: the `fast` profile, so
/// that the memo, index advisor, columnar and incremental routes are live.
hql::EngineOptions FastProfile();

/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// FNV-1a over the first `count` loop requests of a fresh stream: recorded
/// in the output so two runs can be shown to have sent the same traffic.
uint64_t StreamHash(const Workload& workload, uint64_t seed, int conn,
                    size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
