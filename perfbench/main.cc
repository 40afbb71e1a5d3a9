// hql_e2e — the end-to-end hql_serve benchmark.
//
//   hql_e2e --workload <family_read|edit_reask|wire_churn> --seed N
//           --seconds S --trace 0|1
//
// Drives a real HqlServer over loopback through WireClient connections in
// a closed loop: each connection sends its next request only after the
// previous reply, as an analyst's session does. Every workload runs under
// the `fast` engine profile, so the memo, index advisor, columnar and
// incremental routes are all live.
//
// --trace 0 prints the end-to-end metrics. Set-up runs several times (once
// before the loop, the rest after it) and setup_s is the median.
// --trace 1 sets up once, runs the same timed loop,
// then replays the recorded streams in process twice (tracing off, then
// on) and prints the per-layer metrics. Both modes check a fixed sample of
// reads against a Strategy::kDirect mirror. The traced mode also checks
// every replayed answer against the server's, and fails when the timed
// layers cover less than 95% of the in-process request time.
//
// The last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// The line before it records the run context. The exit code is 0 only when
// the run is correct.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "eval/simd.h"
#include "opt/engine.h"
#include "replay.h"
#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMinWrites = 200;
// The loop stops at --seconds once the sample floors are met, and at this
// bound regardless, so a run always ends well within three minutes.
constexpr double kMaxLoopSeconds = 90;
constexpr double kMinCoverage = 0.95;
constexpr size_t kStreamHashRequests = 1000;

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

double MicrosSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// Peak resident set size of this process so far (VmHWM).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

struct Conn {
  hql::WireClient client;
  std::unique_ptr<Stream> stream;
  Recorded rec;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> connect_us;  // WireClient::Connect plus the first ping
  size_t failed = 0;
};

// Member order matters: connections close before the server stops, and the
// server stops before the engine it serves is destroyed.
struct Live {
  std::unique_ptr<hql::Engine> engine;
  std::unique_ptr<hql::HqlServer> server;
  std::vector<Conn> conns;
};

Answer Call(hql::WireClient& client, const std::string& line) {
  auto response = client.Call(line);
  return response.ok() ? AnswerOf(**response) : Answer{};
}

/// Opens `conn`'s connection and pings it; the ping's own latency goes to
/// *ping_us.
Answer Connect(uint16_t port, Conn& conn, double* ping_us) {
  Clock::time_point start = Clock::now();
  auto client = hql::WireClient::Connect(port);
  if (!client.ok()) return Answer{};
  conn.client = std::move(client).value();
  Clock::time_point sent = Clock::now();
  Answer pong = Call(conn.client, "ping");
  Clock::time_point end = Clock::now();
  conn.connect_us.push_back(MicrosSince(start, end));
  *ping_us = MicrosSince(sent, end);
  return pong;
}

/// Sends one stream request, reconnecting first when it asks to.
Answer Issue(uint16_t port, Conn& conn, const Request& r, double* latency_us) {
  if (r.reconnect) {
    conn.client.Quit();
    return Connect(port, conn, latency_us);
  }
  Clock::time_point start = Clock::now();
  Answer a = Call(conn.client, r.line);
  *latency_us = MicrosSince(start, Clock::now());
  return a;
}

/// Base generation, engine and server start, connecting, deriving the
/// scenario trees and warm-up. Failed set-up requests add to *failed.
std::unique_ptr<Live> SetUp(const Workload& workload, uint64_t seed,
                            size_t* failed) {
  auto live = std::make_unique<Live>();
  live->engine =
      std::make_unique<hql::Engine>(workload.make_base(seed), FastProfile());
  live->server = std::make_unique<hql::HqlServer>(live->engine.get());
  hql::Status started = live->server->Start();
  HQL_CHECK_MSG(started.ok(), started.ToString().c_str());
  const uint16_t port = live->server->port();
  live->conns.resize(static_cast<size_t>(workload.connections));

  std::vector<std::thread> threads;
  for (size_t c = 0; c < live->conns.size(); ++c) {
    threads.emplace_back([&, c] {
      Conn& conn = live->conns[c];
      double ping_us = 0;
      if (!Connect(port, conn, &ping_us).ok) ++conn.failed;
      conn.stream = workload.make_stream(seed, static_cast<int>(c));
      for (const Request& r : conn.stream->prologue()) {
        double latency_us = 0;
        Answer a = Issue(port, conn, r, &latency_us);
        if (!a.ok) ++conn.failed;
        conn.rec.answers.push_back(a);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (Conn& conn : live->conns) {
    *failed += conn.failed;
    conn.failed = 0;
  }
  return live;
}

/// Closes every connection, stops the server and frees the engine; the
/// connections' records are handed back.
std::vector<Conn> TearDown(std::unique_ptr<Live> live) {
  for (Conn& conn : live->conns) conn.client.Quit();
  live->server->Stop();
  return std::move(live->conns);
}

struct LoopResult {
  size_t requests = 0;
  double seconds = 0;
  double peak_rss_mb = 0;
};

/// The timed closed loop: one thread per connection, each waiting for its
/// reply before sending the next request.
LoopResult RunLoop(const Workload& workload, Live& live, double seconds) {
  const uint16_t port = live.server->port();
  std::atomic<size_t> done{0};
  std::atomic<size_t> reads{0};
  std::atomic<size_t> writes{0};
  double rss_mb = 0;  // written once, by the thread completing rss_after
  Clock::time_point start = Clock::now();

  std::vector<std::thread> threads;
  for (Conn& conn : live.conns) {
    // Reserved address space is not resident until written, so the records
    // grow peak_rss_mb smoothly instead of in reallocation steps whose size
    // depends on how the requests split between connections.
    conn.rec.answers.reserve(conn.rec.answers.size() + workload.rss_after);
    conn.rec.loop_latency_us.reserve(workload.rss_after);
    conn.read_ms.reserve(workload.rss_after);
    conn.write_ms.reserve(workload.rss_after);
    threads.emplace_back([&] {
      for (;;) {
        double elapsed = SecondsSince(start);
        if (elapsed >= kMaxLoopSeconds) break;
        if (elapsed >= seconds && done.load() >= workload.rss_after &&
            reads.load() >= kMinSamplesForP99 && writes.load() >= kMinWrites) {
          break;
        }
        Request r = conn.stream->Next();
        double latency_us = 0;
        Answer a = Issue(port, conn, r, &latency_us);
        conn.rec.answers.push_back(a);
        conn.rec.loop_latency_us.push_back(latency_us);
        if (!a.ok) ++conn.failed;
        if (r.cls == OpClass::kRead) {
          conn.read_ms.push_back(latency_us / 1000);
          reads.fetch_add(1);
        } else {
          conn.write_ms.push_back(latency_us / 1000);
          writes.fetch_add(1);
        }
        if (done.fetch_add(1) + 1 == workload.rss_after) rss_mb = PeakRssMb();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoopResult result;
  result.requests = done.load();
  result.seconds = SecondsSince(start);
  result.peak_rss_mb = rss_mb > 0 ? rss_mb : PeakRssMb();
  return result;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", m.value);
    hql::AppendJsonString(&out, m.name);
    out += ": {\"value\": ";
    out += buf;
    out += ", \"unit\": ";
    hql::AppendJsonString(&out, m.unit);
    out += "}";
  }
  return out + "}";
}

/// Time inside the traced request windows that the timed layers account
/// for.
double LayeredUs(const ReplayTotals& t) {
  return t.wire_parse_us + t.parse_us + t.query_us + t.write_us + t.hash_us +
         t.encode_us + t.free_us;
}

double Coverage(const ReplayTotals& t) {
  return t.window_us > 0 ? LayeredUs(t) / t.window_us : 0.0;
}

/// The per-layer metrics from the two replays (see BENCHMARK.json).
std::vector<Metric> LayerMetrics(const ReplayTotals& t,
                                 const ReplayTotals& untraced,
                                 const std::vector<Recorded>& recorded,
                                 const std::vector<double>& connect_us) {
  const double n = static_cast<double>(std::max<size_t>(t.requests, 1));
  const double reads = static_cast<double>(std::max<size_t>(t.reads, 1));
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };

  // The client's latency minus the in-process time of the same request.
  double transport = 0;
  size_t matched = 0;
  for (size_t c = 0; c < recorded.size(); ++c) {
    const std::vector<double>& inproc = untraced.request_us[c];
    for (size_t i = 0; i < inproc.size(); ++i) {
      transport += recorded[c].loop_latency_us[i] - inproc[i];
      ++matched;
    }
  }
  double connect_total = 0;
  for (double v : connect_us) connect_total += v;

  const double unattributed = t.window_us - LayeredUs(t);
  return {
      {"server.transport_us", ratio(transport, static_cast<double>(matched)),
       "us"},
      {"server.wire_parse_us", t.wire_parse_us / n, "us"},
      {"server.encode_us", t.encode_us / n, "us"},
      {"server.connect_us",
       ratio(connect_total, static_cast<double>(connect_us.size())), "us"},
      {"parser.parse_us", t.parse_us / n, "us"},
      {"ast.composed_tree_size", t.tree_size / reads, "nodes/read"},
      {"hql.enf_us", t.enf_us / n, "us"},
      {"hql.simplify_us", t.simplify_us / n, "us"},
      {"opt.plan_us", t.plan_us / n, "us"},
      {"opt.query_us", t.query_us / n, "us"},
      {"opt.execute_us", (t.query_us - t.plan_us) / n, "us"},
      {"opt.write_us", t.write_us / n, "us"},
      {"opt.route.hybrid-lazy", static_cast<double>(t.route_lazy) / reads,
       "share"},
      {"opt.route.hybrid-delta", static_cast<double>(t.route_delta) / reads,
       "share"},
      {"opt.route.hybrid-eager", static_cast<double>(t.route_eager) / reads,
       "share"},
      {"eval.operator_us", t.operator_us / n, "us"},
      {"eval.memo_hit_ratio",
       ratio(static_cast<double>(t.memo_hits),
             static_cast<double>(t.memo_hits + t.memo_misses)),
       "ratio"},
      {"eval.memo_evictions", static_cast<double>(t.memo_evictions), "count"},
      {"eval.memo_cached_tuples", static_cast<double>(t.memo_cached_tuples),
       "count"},
      {"eval.incremental_patch_ratio",
       ratio(static_cast<double>(t.patched),
             static_cast<double>(t.patched + t.patch_fallbacks)),
       "ratio"},
      {"eval.columnar_rows_vectorized",
       static_cast<double>(t.rows_vectorized) / n, "rows"},
      {"storage.hash_us", t.hash_us / n, "us"},
      {"storage.free_us", t.free_us / n, "us"},
      {"storage.tuples_copied", static_cast<double>(t.tuples_copied) / n,
       "count"},
      {"storage.result_rows", static_cast<double>(t.result_rows) / reads,
       "rows/read"},
      {"unattributed_us", unattributed / n, "us"},
      {"replay.untraced_us", untraced.window_us / n, "us"},
      {"replay.traced_us", t.window_us / n, "us"},
      {"replay.coverage", Coverage(t), "ratio"},
  };
}

std::string Context(const Args& args, const Workload& workload) {
  std::string out = "{\"context\": {\"workload\": ";
  hql::AppendJsonString(&out, workload.name);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"build_type\": ";
  hql::AppendJsonString(&out, PERFBENCH_BUILD_TYPE);
  out += ", \"simd\": ";
  hql::AppendJsonString(&out, hql::SimdIsaName());
  out += ", \"compiler\": ";
  hql::AppendJsonString(&out, kCompiler);
  out += ", \"engine_options\": ";
  hql::AppendJsonString(&out, FastProfile().Describe());
  out += ", \"connections\": " + std::to_string(workload.connections);
  out += ", \"stream_hashes\": [";
  for (int c = 0; c < workload.connections; ++c) {
    if (c > 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "\"%016llx\"",
                  static_cast<unsigned long long>(StreamHash(
                      workload, args.seed, c, kStreamHashRequests)));
    out += buf;
  }
  return out + "]";
}

int Run(const Args& args, const Workload& workload) {
  std::string context = Context(args, workload);
  size_t failed = 0;

  Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Live> live = SetUp(workload, args.seed, &failed);
  std::vector<double> setup_s = {SecondsSince(setup_start)};

  LoopResult loop = RunLoop(workload, *live, args.seconds);
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> connect_us;
  std::vector<Recorded> recorded;
  for (Conn& conn : TearDown(std::move(live))) {
    read_ms.insert(read_ms.end(), conn.read_ms.begin(), conn.read_ms.end());
    write_ms.insert(write_ms.end(), conn.write_ms.begin(), conn.write_ms.end());
    connect_us.insert(connect_us.end(), conn.connect_us.begin(),
                      conn.connect_us.end());
    failed += conn.failed;
    recorded.push_back(std::move(conn.rec));
  }

  // More set-ups for a steady setup_s, after the loop so that peak_rss_mb
  // sees one set-up only.
  for (int i = 1; i < (args.trace ? 1 : workload.setup_repeats); ++i) {
    Clock::time_point start = Clock::now();
    std::unique_ptr<Live> extra = SetUp(workload, args.seed, &failed);
    setup_s.push_back(SecondsSince(start));
    TearDown(std::move(extra));
  }

  // Correctness: a fixed sample against the kDirect mirror.
  size_t direct_checked = 0;
  size_t mismatches = 0;
  for (int c = 0; c < workload.connections; ++c) {
    DirectCheck check =
        CheckDirect(workload, args.seed, c, recorded[static_cast<size_t>(c)],
                    workload.direct_checks_per_conn);
    direct_checked += check.checked;
    mismatches += check.mismatches;
  }

  std::vector<Metric> metrics;
  bool covered = true;
  std::string extra;
  if (!args.trace) {
    metrics = {
        {"throughput_rps", static_cast<double>(loop.requests) / loop.seconds,
         "1/s"},
        {"read_p50_ms", Percentile(read_ms, 50), "ms"},
        {"read_p99_ms", Percentile(read_ms, 99), "ms"},
        {"write_p50_ms", Percentile(write_ms, 50), "ms"},
        {"peak_rss_mb", loop.peak_rss_mb, "MB"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    ReplayResult replay =
        Replay(workload, args.seed, recorded, workload.replay_per_conn);
    const ReplayTotals& untraced = replay.untraced;
    const ReplayTotals& traced = replay.traced;
    mismatches += untraced.mismatches + traced.mismatches;
    metrics = LayerMetrics(traced, untraced, recorded, connect_us);
    const double n = static_cast<double>(std::max<size_t>(traced.requests, 1));
    const double coverage = Coverage(traced);
    covered = coverage >= kMinCoverage;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  ", \"replayed_requests\": %zu, \"inprocess_untraced_us\": "
                  "%.3f, \"inprocess_traced_us\": %.3f, \"coverage\": %.4f",
                  traced.requests, untraced.window_us / n,
                  traced.window_us / n, coverage);
    extra = buf;
  }

  failed += mismatches;
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = failed == 0 && finite && covered;
  const size_t attempted = std::max<size_t>(loop.requests, 1);

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"loop_requests\": %zu, \"loop_seconds\": %.3f, "
                "\"reads\": %zu, \"writes\": %zu, \"direct_checked\": %zu, "
                "\"mismatches\": %zu, \"failed_frac\": %.6g",
                loop.requests, loop.seconds, read_ms.size(), write_ms.size(),
                direct_checked, mismatches,
                static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("%s%s%s}}\n", context.c_str(), buf, extra.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds: with glibc's dynamic ones, whether a large
  // result buffer is reused or unmapped and faulted in again depends on the
  // order of earlier frees, which made read_p99_ms jump between runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hql_e2e --workload <%s> --seed N --seconds S "
                 "--trace 0|1\n",
                 perfbench::WorkloadNames().c_str());
    return 2;
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (want %s)\n",
                 args.workload.c_str(), perfbench::WorkloadNames().c_str());
    return 2;
  }
  return perfbench::Run(args, *workload);
}
