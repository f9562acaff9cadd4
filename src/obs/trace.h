// Structured pipeline tracing.
//
// Components record TraceEvents (component, stage, client, chunk, sim-time
// begin/end) into a bounded ring buffer; when full, the oldest events are
// overwritten so a long run keeps its most recent window. The buffer exports
// Chrome trace_event JSON ("catapult" format): open chrome://tracing or
// https://ui.perfetto.dev and load the file to see a whole pipeline run
// (fetch -> validate -> compress -> transfer -> publish -> ack) on a
// per-node, per-client timeline.
//
// Causal linkage: every span carries a (trace_id, span_id, parent_span)
// triple. A TraceContext — the id pair a child needs to parent itself — is
// minted at the operation root (LibFs fsync / publish kick) and propagated
// across RPC boundaries inside the pipeline messages, so one fsync yields one
// connected span tree spanning host, SmartNIC, and every replica. Span ids
// come from a per-buffer monotonic counter, which keeps them deterministic
// run-to-run. CriticalPathAnalyzer (critical_path.h) consumes the linkage.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/timeseries.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace linefs::obs {

class Counter;

// The portable half of a span's identity: what a child — possibly on another
// node, reached through an RPC message — needs to join the same operation
// tree. trace_id 0 means "no context"; spans started without one become the
// root of a fresh trace.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
};

struct TraceEvent {
  std::string component;  // e.g. "nicfs.0"; becomes the trace category.
  std::string stage;      // e.g. "fetch"; becomes the event name.
  int node = 0;           // Chrome pid lane.
  int client = 0;         // Chrome tid lane.
  uint64_t chunk_no = 0;
  sim::Time begin = 0;
  sim::Time end = 0;
  // Causal linkage (0 = absent, for events recorded without a context).
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;  // 0 marks a trace root.
};

class TraceBuffer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit TraceBuffer(sim::Engine* engine, size_t capacity = kDefaultCapacity);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void Record(TraceEvent event);

  // Mints the next span id (1-based, monotonic, deterministic).
  uint64_t NextId() { return ++last_id_; }

  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  // Events overwritten because the ring was full.
  uint64_t dropped() const { return dropped_; }
  uint64_t total_recorded() const { return total_recorded_; }
  sim::Engine* engine() const { return engine_; }

  // Mirrors ring-wrap drops into a registry counter (obs.trace.dropped) so
  // overflow shows up in metric snapshots and BENCH_*.json, not just here.
  void SetDroppedCounter(Counter* counter) { dropped_counter_ = counter; }

  // Visits retained events oldest-first.
  void ForEach(const std::function<void(const TraceEvent&)>& fn) const;

  void Clear();

  // Chrome trace_event JSON (ts/dur in microseconds of simulated time).
  // Span linkage rides in args.{trace,span,parent}; ring-drop accounting in
  // otherData.{dropped,total_recorded}. With a timeline, each series also
  // emits ph:"C" counter events (per-window rate for counter series, p95 for
  // sampled ones), so telemetry curves render as counter tracks above the
  // spans in Perfetto / chrome://tracing.
  std::string ToChromeJson(const TimelineSnapshot* timeline = nullptr) const;
  // Returns false when the file cannot be opened for writing.
  bool WriteChromeJson(const std::string& path, const TimelineSnapshot* timeline = nullptr) const;

 private:
  sim::Engine* engine_;
  size_t capacity_;
  size_t head_ = 0;  // Index of the oldest event once the ring has wrapped.
  uint64_t dropped_ = 0;
  uint64_t total_recorded_ = 0;
  uint64_t last_id_ = 0;
  Counter* dropped_counter_ = nullptr;
  std::vector<TraceEvent> events_;
};

// RAII span: stamps `begin` from the engine clock at construction and records
// the event on End() (or destruction, if End() was never called). Move-only;
// a moved-from span records nothing.
//
// With a parent TraceContext the span joins that trace; without one (or with
// an invalid context) it roots a new trace (trace_id == its own span_id).
// context() is available immediately after construction, so children can be
// spawned while the span is still open.
class Span {
 public:
  Span() = default;
  Span(TraceBuffer* buffer, std::string component, std::string stage, int node, int client,
       uint64_t chunk_no);
  Span(TraceBuffer* buffer, std::string component, std::string stage, int node, int client,
       uint64_t chunk_no, TraceContext parent);
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  void End();
  bool active() const { return buffer_ != nullptr; }
  sim::Time begin() const { return event_.begin; }
  // The context children should parent under. Valid even after End() — the
  // ids outlive the recording.
  TraceContext context() const { return {event_.trace_id, event_.span_id}; }

 private:
  TraceBuffer* buffer_ = nullptr;
  TraceEvent event_;
};

}  // namespace linefs::obs

#endif  // SRC_OBS_TRACE_H_
