// Statistics and the metric catalogue of the end-to-end benchmark.
//
// Kept free of simulator types so tests/stats_test.cc can check it alone:
//   - the tail-percentile rule (report the highest percentile that still has
//     at least ten samples beyond it, capped at the one asked for);
//   - the catalogue of every metric linefs_e2ebench prints, with unit, direction
//     and kind, and the name rule shared with BENCHMARK.json;
//   - medians over repetitions and the determinism digest.

#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace linefs::e2ebench {

// Samples that must lie beyond a reported tail percentile.
inline constexpr double kTailSamples = 10;

// The percentile to report when `want` (e.g. 99) is asked of `n` samples:
// `want` itself if n * (1 - want/100) >= 10, else the highest percentile with
// ten samples beyond it. 0 (the minimum) when there are ten samples or fewer.
inline double TailPercentile(uint64_t n, double want) {
  if (n <= static_cast<uint64_t>(kTailSamples)) {
    return 0;
  }
  double highest = 100.0 * (static_cast<double>(n) - kTailSamples) / static_cast<double>(n);
  return std::min(want, highest);
}

// Median of `v` (mean of the middle two for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Metric names: 1..64 characters of [A-Za-z0-9_.-], starting with a letter or
// digit (the BENCHMARK.json name rule).
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) {
    return false;
  }
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

enum class Kind {
  kEndToEnd,  // What a user of the system sees; printed with --trace 0.
  kLayer,     // One src/ module's share; printed with --trace 1.
  kInfo,      // Printed as text only (never 0-safe, e.g. a failure ratio).
};

// How a metric is obtained, which decides how repetitions are combined and
// whether it enters the determinism digest.
enum class Source {
  kVirtual,  // Simulated time or simulated counts: identical for a seed.
  kWall,     // Host wall time or host resources: median over repetitions.
  kTraced,   // Needs the traced repetition (critical-path analysis, spans).
};

struct MetricDef {
  const char* name;
  const char* unit;
  bool lower_is_better;
  Kind kind;
  Source source;
};

// Every metric the benchmark computes, in print order. README.md documents each
// one and the layer-to-end-to-end map.
inline constexpr MetricDef kMetrics[] = {
    // --- End to end ---
    {"sim_write_gbps", "GB/s", false, Kind::kEndToEnd, Source::kVirtual},
    {"sim_fsync_p50_us", "us", true, Kind::kEndToEnd, Source::kVirtual},
    {"sim_fsync_p99_us", "us", true, Kind::kEndToEnd, Source::kVirtual},
    {"sim_read_p50_us", "us", true, Kind::kEndToEnd, Source::kVirtual},
    {"sim_read_p99_us", "us", true, Kind::kEndToEnd, Source::kVirtual},
    {"wall_s", "s", true, Kind::kEndToEnd, Source::kWall},
    {"setup_s", "s", true, Kind::kEndToEnd, Source::kWall},
    {"peak_rss_mb", "MB", true, Kind::kEndToEnd, Source::kWall},
    {"ops_failed_frac", "frac", true, Kind::kInfo, Source::kVirtual},
    // --- sim ---
    {"sim.events", "count", true, Kind::kLayer, Source::kVirtual},
    {"sim.ns_per_event", "ns", true, Kind::kLayer, Source::kWall},
    {"sim.run_wall_s", "s", true, Kind::kLayer, Source::kWall},
    {"sim.schedule_clamped", "count", true, Kind::kLayer, Source::kVirtual},
    // --- hw ---
    {"hw.host_cpu_busy_s", "s", true, Kind::kLayer, Source::kVirtual},
    {"hw.nic_cpu_busy_s", "s", true, Kind::kLayer, Source::kVirtual},
    {"hw.pcie_bytes", "bytes", true, Kind::kLayer, Source::kVirtual},
    {"hw.fabric_bytes", "bytes", true, Kind::kLayer, Source::kVirtual},
    {"hw.corunner_slowdown", "x", true, Kind::kLayer, Source::kVirtual},
    // --- pmem (and the process it costs) ---
    {"pmem.bytes_written", "bytes", true, Kind::kLayer, Source::kVirtual},
    {"pmem.bytes_per_user_byte", "ratio", true, Kind::kLayer, Source::kVirtual},
    {"proc.sys_s", "s", true, Kind::kLayer, Source::kWall},
    {"proc.minor_faults", "count", true, Kind::kLayer, Source::kWall},
    // --- libfs ---
    {"libfs.write_p50_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"libfs.write_p99_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"libfs.log_stall_waits", "count", true, Kind::kLayer, Source::kVirtual},
    {"libfs.reads_nic_routed_frac", "frac", false, Kind::kLayer, Source::kVirtual},
    // --- nicfs / pipeline / repl ---
    {"nicfs.stage.fetch.p50_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.fetch.p99_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.validate.p50_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.validate.p99_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.transfer.p50_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.transfer.p99_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.publish.p50_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.publish.p99_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.ack.p50_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.stage.ack.p99_us", "us", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.chunks_transferred", "count", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.wire_bytes_per_user_byte", "ratio", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.flow_ctrl_stall_ms", "ms", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.nic_reads", "count", false, Kind::kLayer, Source::kVirtual},
    {"nicfs.repl_retransmits", "count", true, Kind::kLayer, Source::kVirtual},
    {"nicfs.repl_send_failures", "count", true, Kind::kLayer, Source::kVirtual},
    // --- kworker / lease ---
    {"kworker.copies", "count", true, Kind::kLayer, Source::kVirtual},
    {"kworker.bytes_copied", "bytes", true, Kind::kLayer, Source::kVirtual},
    {"lease.grants", "count", true, Kind::kLayer, Source::kVirtual},
    {"lease.revocations", "count", true, Kind::kLayer, Source::kVirtual},
    // --- obs ---
    {"cp.fsync.copy_pct", "%", true, Kind::kLayer, Source::kTraced},
    {"cp.fsync.validate_pct", "%", true, Kind::kLayer, Source::kTraced},
    {"cp.fsync.replicate-net_pct", "%", true, Kind::kLayer, Source::kTraced},
    {"cp.fsync.persist_pct", "%", true, Kind::kLayer, Source::kTraced},
    {"cp.fsync.ack_pct", "%", true, Kind::kLayer, Source::kTraced},
    {"cp.fsync.wait_pct", "%", true, Kind::kLayer, Source::kTraced},
    {"cp.ops_covered_frac", "frac", false, Kind::kLayer, Source::kTraced},
    {"obs.trace_dropped", "count", true, Kind::kLayer, Source::kVirtual},
    {"obs.teardown_wall_s", "s", true, Kind::kLayer, Source::kWall},
    {"obs.bench_trace_overhead_s", "s", true, Kind::kLayer, Source::kTraced},
    // --- sample counts behind the percentiles above ---
    {"bench.fsync_samples", "count", false, Kind::kLayer, Source::kVirtual},
    {"bench.read_samples", "count", false, Kind::kLayer, Source::kVirtual},
    {"bench.write_samples", "count", false, Kind::kLayer, Source::kVirtual},
};

inline constexpr size_t kMetricCount = sizeof(kMetrics) / sizeof(kMetrics[0]);

// Catalogue index of `name`, or kMetricCount when unknown.
inline size_t MetricIndex(std::string_view name) {
  for (size_t i = 0; i < kMetricCount; ++i) {
    if (name == kMetrics[i].name) {
      return i;
    }
  }
  return kMetricCount;
}

// FNV-1a over the bit patterns of a sequence of doubles: the determinism
// digest of one repetition's virtual-time metrics.
class Digest {
 public:
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace linefs::e2ebench

#endif  // E2EBENCH_STATS_H_
