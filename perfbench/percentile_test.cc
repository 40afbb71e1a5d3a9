// Checks perfbench::Percentile against hand-computed values. Exits 1 on
// the first wrong answer; run.py runs it after every build.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(const char* what, double got, double want) {
  bool ok = std::isnan(want) ? std::isnan(got) : std::fabs(got - want) < 1e-9;
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: got %.12g want %.12g\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::Percentile;
  const double nan = std::nan("");

  Expect("empty", Percentile({}, 50), nan);
  Expect("single", Percentile({7}, 50), 7);
  Expect("odd median", perfbench::Median({3, 1, 2}), 2);
  Expect("even median interpolates", perfbench::Median({4, 1, 3, 2}), 2.5);
  // rank = 0.25 * 4 = 1 -> the second smallest exactly.
  Expect("quartile on a rank", Percentile({10, 20, 30, 40, 50}, 25), 20);
  // rank = 0.9 * 4 = 3.6 -> 40 + 0.6 * 10.
  Expect("p90 between ranks", Percentile({50, 10, 40, 20, 30}, 90), 46);
  Expect("q out of range", Percentile({1, 2}, 100), nan);

  std::vector<double> few(perfbench::kMinSamplesForP99 - 1, 1.0);
  Expect("p99 refused below the sample floor", Percentile(few, 99), nan);
  Expect("p50 allowed below the p99 floor", Percentile(few, 50), 1.0);

  // 0..999: rank = 0.99 * 999 = 989.01 -> 989.01.
  std::vector<double> ramp;
  for (int i = 999; i >= 0; --i) ramp.push_back(i);
  Expect("p99 at the sample floor", Percentile(ramp, 99), 989.01);

  if (failures == 0) std::printf("percentile_test: ok\n");
  return failures == 0 ? 0 : 1;
}
