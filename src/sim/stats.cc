#include "src/sim/stats.h"

#include <cmath>

namespace linefs::sim {

void LatencyRecorder::EnsureSorted() const {
  if (sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
  }
}

Time LatencyRecorder::Min() const {
  if (samples_.empty()) {
    return 0;
  }
  EnsureSorted();
  return sorted_.front();
}

Time LatencyRecorder::Max() const {
  if (samples_.empty()) {
    return 0;
  }
  EnsureSorted();
  return sorted_.back();
}

double LatencyRecorder::Mean() const {
  if (samples_.empty()) {
    return 0;
  }
  double sum = 0;
  for (Time v : samples_) {
    sum += static_cast<double>(v);
  }
  return sum / static_cast<double>(samples_.size());
}

Time LatencyRecorder::Percentile(double p) const {
  if (samples_.empty()) {
    return 0;
  }
  EnsureSorted();
  double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  size_t idx = static_cast<size_t>(rank);
  if (idx + 1 >= sorted_.size()) {
    return sorted_.back();
  }
  double frac = rank - static_cast<double>(idx);
  return static_cast<Time>(static_cast<double>(sorted_[idx]) * (1.0 - frac) +
                           static_cast<double>(sorted_[idx + 1]) * frac);
}

void TimeSeries::EnsureBucket(size_t i) {
  if (buckets_.size() <= i) {
    buckets_.resize(i + 1, 0.0);
  }
}

void TimeSeries::Add(Time t, double amount) {
  if (t < 0) {
    t = 0;
  }
  size_t i = static_cast<size_t>(t / bucket_width_);
  EnsureBucket(i);
  buckets_[i] += amount;
}

void TimeSeries::AddSpread(Time start, Time end, double amount) {
  if (end <= start) {
    Add(start, amount);
    return;
  }
  double total = static_cast<double>(end - start);
  size_t first = static_cast<size_t>(start / bucket_width_);
  size_t last = static_cast<size_t>((end - 1) / bucket_width_);
  EnsureBucket(last);
  for (size_t i = first; i <= last; ++i) {
    Time b_start = static_cast<Time>(i) * bucket_width_;
    Time b_end = b_start + bucket_width_;
    Time lo = std::max(start, b_start);
    Time hi = std::min(end, b_end);
    buckets_[i] += amount * static_cast<double>(hi - lo) / total;
  }
}

}  // namespace linefs::sim
