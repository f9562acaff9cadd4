// Unified metrics layer: named, hierarchically-scoped counters, gauges, and
// latency histograms.
//
// A MetricsRegistry owns every metric created through it; components hold
// stable raw pointers for cheap hot-path updates and expose read-only
// snapshots to callers. Metric names form a dot-separated hierarchy, e.g.
//
//   nicfs.0.stage.fetch        (histogram: per-chunk fetch latency, ns)
//   nicfs.0.chunks_fetched     (counter)
//   libfs.3.fsyncs             (counter)
//   nicfs.1.qdepth.validate    (histogram: queue depth at each push/pop)
//
// MetricScope carries a registry plus a name prefix so a component can mint
// its own metrics without knowing where it sits in the hierarchy.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/obs/timeseries.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace linefs::obs {

// Monotonic event/byte count.
class Counter {
 public:
  void Add(uint64_t delta) { value_ += delta; }
  void Increment() { value_ += 1; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

// Point-in-time level (queue depth, utilization, worker count).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

// Order statistics of a histogram at snapshot time. Values are in the unit
// recorded (nanoseconds for stage latencies, items for queue depths).
struct HistogramSummary {
  uint64_t count = 0;
  double mean = 0;
  sim::Time min = 0;
  sim::Time max = 0;
  sim::Time p50 = 0;
  sim::Time p95 = 0;
  sim::Time p99 = 0;
  sim::Time p999 = 0;  // The tail beyond p99 is where saturation knees live.
};

// Sample distribution; wraps sim::LatencyRecorder (exact order statistics).
class Histogram {
 public:
  void Record(sim::Time v) { recorder_.Record(v); }
  size_t count() const { return recorder_.count(); }
  const sim::LatencyRecorder& recorder() const { return recorder_; }
  HistogramSummary Summarize() const;
  void Clear() { recorder_.Clear(); }

 private:
  sim::LatencyRecorder recorder_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. Returned pointers are stable for the registry's lifetime.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);
  // The series is created with the registry's configured timeline window; a
  // window of 0 yields a disabled series whose Record() is a no-op. Asking
  // again with a different kind returns the existing series unchanged.
  TimeSeries* GetTimeSeries(std::string_view name, SeriesKind kind);

  // Const lookups; nullptr when the metric does not exist.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  const TimeSeries* FindTimeSeries(std::string_view name) const;

  size_t counter_count() const { return counters_.size(); }
  size_t gauge_count() const { return gauges_.size(); }
  size_t histogram_count() const { return histograms_.size(); }
  size_t timeseries_count() const { return series_.size(); }

  // Window width stamped into series minted afterwards (existing series keep
  // theirs). 0 disables virtual-time telemetry for new series. Set before
  // components mint series, i.e. before the cluster builds its services.
  void SetTimelineWindow(sim::Time width) { timeline_window_ = width; }
  sim::Time timeline_window() const { return timeline_window_; }

  static constexpr sim::Time kDefaultTimelineWindow = 50 * sim::kMillisecond;

  // Point-in-time copy of every metric, keyed by full name. This is the only
  // way values leave the registry: callers can never mutate live metrics
  // through it.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSummary> histograms;
    // Windowed series with at least one non-empty window (disabled or
    // never-fed series are omitted).
    TimelineSnapshot timeline;
  };
  Snapshot TakeSnapshot() const;

 private:
  // Transparent comparator: lookup by string_view without allocating.
  using Less = std::less<>;
  std::map<std::string, std::unique_ptr<Counter>, Less> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, Less> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, Less> histograms_;
  std::map<std::string, std::unique_ptr<TimeSeries>, Less> series_;
  sim::Time timeline_window_ = kDefaultTimelineWindow;
};

// A registry handle bound to a name prefix ("nicfs.0"). Sub("stage") yields
// "nicfs.0.stage"; CounterAt("chunks_fetched") mints
// "nicfs.0.chunks_fetched".
class MetricScope {
 public:
  MetricScope(MetricsRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  MetricScope Sub(std::string_view name) const {
    return MetricScope(registry_, Join(name));
  }

  Counter* CounterAt(std::string_view name) const {
    return registry_->GetCounter(Join(name));
  }
  Gauge* GaugeAt(std::string_view name) const { return registry_->GetGauge(Join(name)); }
  Histogram* HistogramAt(std::string_view name) const {
    return registry_->GetHistogram(Join(name));
  }
  TimeSeries* TimeSeriesAt(std::string_view name, SeriesKind kind) const {
    return registry_->GetTimeSeries(Join(name), kind);
  }

  const std::string& prefix() const { return prefix_; }
  MetricsRegistry* registry() const { return registry_; }

 private:
  std::string Join(std::string_view name) const {
    if (prefix_.empty()) {
      return std::string(name);
    }
    std::string full = prefix_;
    full += '.';
    full += name;
    return full;
  }

  MetricsRegistry* registry_;
  std::string prefix_;
};

}  // namespace linefs::obs

#endif  // SRC_OBS_METRICS_H_
