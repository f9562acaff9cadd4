// Tests for the benchmark's statistics code and metric catalogue (stats.h).
// Plain checks, no framework: prints each failure and exits non-zero.

#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace linefs::e2ebench;

void TestTailPercentile() {
  // p99 needs 1000 samples: exactly ten lie beyond it.
  Expect(Near(TailPercentile(1000, 99), 99), "p99 of 1000 samples is p99");
  Expect(Near(TailPercentile(5000, 99), 99), "p99 of 5000 samples is p99");
  // Fewer samples: the highest percentile with ten samples beyond it.
  Expect(Near(TailPercentile(200, 99), 95), "200 samples support p95");
  Expect(Near(TailPercentile(999, 99), 100.0 * 989 / 999), "999 samples fall short of p99");
  for (uint64_t n : {11, 20, 192, 500, 999, 1000, 4096}) {
    double q = TailPercentile(n, 99);
    double beyond = static_cast<double>(n) * (1 - q / 100);
    Expect(beyond >= kTailSamples - 1e-9, "ten samples beyond p" + std::to_string(q) + " of " +
                                              std::to_string(n));
  }
  // The median is untouched wherever it has ten samples beyond it.
  Expect(Near(TailPercentile(20, 50), 50), "p50 of 20 samples is p50");
  Expect(Near(TailPercentile(12, 50), 100.0 * 2 / 12), "p50 of 12 samples falls back");
  // Ten samples or fewer support no tail at all.
  Expect(TailPercentile(10, 99) == 0, "10 samples: minimum");
  Expect(TailPercentile(0, 50) == 0, "no samples: minimum");
}

void TestMedian() {
  Expect(Median({}) == 0, "median of nothing");
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
}

void TestNames() {
  Expect(ValidMetricName("sim_fsync_p99_us"), "plain name");
  Expect(ValidMetricName("cp.fsync.replicate-net_pct"), "dots and dashes");
  Expect(!ValidMetricName(""), "empty name");
  Expect(!ValidMetricName(".sim"), "leading dot");
  Expect(!ValidMetricName("-sim"), "leading dash");
  Expect(!ValidMetricName("sim events"), "space");
  Expect(!ValidMetricName("sim/events"), "slash");
  Expect(!ValidMetricName(std::string(65, 'a')), "65 characters");
  Expect(ValidMetricName(std::string(64, 'a')), "64 characters");
}

void TestCatalogue() {
  std::set<std::string> seen;
  int end_to_end = 0;
  for (const MetricDef& m : kMetrics) {
    std::string name = m.name;
    Expect(ValidMetricName(name), "metric name " + name);
    Expect(seen.insert(name).second, "metric listed twice: " + name);
    std::string unit = m.unit;
    Expect(!unit.empty() && unit.size() <= 16, "unit of " + name);
    for (char c : unit) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                c == '_' || c == '/' || c == '%' || c == '.' || c == '-';
      Expect(ok, "unit character of " + name);
    }
    Expect(MetricIndex(name) < kMetricCount, "index of " + name);
    if (m.kind == Kind::kEndToEnd) {
      ++end_to_end;
    }
  }
  // The end-to-end set, each with a unit and a direction.
  for (const char* name : {"sim_write_gbps", "sim_fsync_p50_us", "sim_fsync_p99_us",
                           "sim_read_p50_us", "sim_read_p99_us", "wall_s", "setup_s",
                           "peak_rss_mb"}) {
    size_t i = MetricIndex(name);
    Expect(i < kMetricCount && kMetrics[i].kind == Kind::kEndToEnd,
           std::string(name) + " is end to end");
  }
  Expect(end_to_end == 8, "eight end-to-end metrics");
  Expect(!kMetrics[MetricIndex("sim_write_gbps")].lower_is_better, "throughput: higher");
  Expect(kMetrics[MetricIndex("setup_s")].lower_is_better, "setup_s: lower");
  Expect(MetricIndex("no.such.metric") == kMetricCount, "unknown name");
}

void TestDigest() {
  Digest a;
  Digest b;
  Digest c;
  for (double v : {1.0, 2.5, 1e9}) {
    a.Add(v);
    b.Add(v);
  }
  c.Add(1.0);
  c.Add(2.5);
  c.Add(1e9 + 1);
  Expect(a.value() == b.value(), "equal inputs, equal digest");
  Expect(a.value() != c.value(), "different inputs, different digest");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestMedian();
  TestNames();
  TestCatalogue();
  TestDigest();
  if (g_failures == 0) {
    std::printf("e2ebench stats tests: all passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
