// Measurement helpers: latency recorders, counters, and time-bucketed series.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace linefs::sim {

// Records individual sample values (typically latencies in ns) and reports
// order statistics. Storage is exact (no histogram error); experiments record
// at most a few million samples.
class LatencyRecorder {
 public:
  void Record(Time v) { samples_.push_back(v); }
  size_t count() const { return samples_.size(); }

  Time Min() const;
  Time Max() const;
  double Mean() const;
  // p in [0, 100]; e.g. Percentile(99.9).
  Time Percentile(double p) const;
  void Clear() { samples_.clear(); }

 private:
  // Sorts lazily; const interface uses a mutable scratch copy.
  void EnsureSorted() const;

  std::vector<Time> samples_;
  mutable std::vector<Time> sorted_;
};

// Time-bucketed accumulation of a quantity (bytes, ops) for time-series plots
// such as Fig. 9 (network bandwidth) and Fig. 10 (Varmail throughput).
class TimeSeries {
 public:
  explicit TimeSeries(Time bucket_width = kSecond) : bucket_width_(bucket_width) {}

  // Adds `amount` at instant `t`.
  void Add(Time t, double amount);

  // Adds `amount` spread uniformly over [start, end).
  void AddSpread(Time start, Time end, double amount);

  Time bucket_width() const { return bucket_width_; }
  size_t bucket_count() const { return buckets_.size(); }
  double bucket_value(size_t i) const { return i < buckets_.size() ? buckets_[i] : 0.0; }
  // Value normalised to a per-second rate.
  double RateAt(size_t i) const { return bucket_value(i) / ToSeconds(bucket_width_); }

 private:
  void EnsureBucket(size_t i);

  Time bucket_width_;
  std::vector<double> buckets_;
};

}  // namespace linefs::sim

#endif  // SRC_SIM_STATS_H_
