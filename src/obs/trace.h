// Structured pipeline tracing.
//
// Components record spans (component, stage, client, chunk, sim-time
// begin/end). Every span feeds the streaming critical-path fold
// (critical_path.h): the buffer keeps each trace's spans only while it is
// open and folds it into one compact per-operation record once it completes,
// so every operation of a run is attributed. Memory is the spans of the
// traces still open plus one 128-byte record per completed operation, which
// grows with the length of the run. Raw spans are kept only on request:
// EnableRing() adds a bounded ring of TraceEvents (oldest overwritten when
// full) that ForEach() visits and that exports as Chrome trace_event JSON
// ("catapult" format): open chrome://tracing or https://ui.perfetto.dev and
// load the file to see a whole pipeline run (fetch -> validate -> compress ->
// transfer -> publish -> ack) on a per-node, per-client timeline.
//
// Causal linkage: every span carries a (trace_id, span_id, parent_span)
// triple. A TraceContext — the id pair a child needs to parent itself — is
// minted at the operation root (LibFs fsync / publish kick) and propagated
// across RPC boundaries inside the pipeline messages, so one fsync yields one
// connected span tree spanning host, SmartNIC, and every replica. Span ids
// come from a per-buffer monotonic counter, which keeps them deterministic
// run-to-run.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/obs/timeseries.h"
#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace linefs::obs {

class Counter;
class CriticalPathFold;

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

// A finished span as the fold keeps it while its trace is open: names are
// interned ids (TraceBuffer::Name), the chunk number is not kept.
struct SpanRecord {
  uint64_t span_id = 0;
  uint64_t parent_span = 0;  // 0 marks a trace root.
  sim::Time begin = 0;
  sim::Time end = 0;
  int node = 0;
  int client = 0;
  uint16_t component = 0;
  uint16_t stage = 0;
};

class TraceBuffer {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 16;

  explicit TraceBuffer(sim::Engine* engine);
  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;
  ~TraceBuffer();

  // Keeps raw spans from now on in a ring of `capacity` events, for ForEach()
  // and the Chrome export. Off by default: the critical-path fold needs none.
  void EnableRing(size_t capacity = kDefaultRingCapacity);

  // Records a finished span that no Span object opened (hand-built traces,
  // fault edges). A trace folds when its root (parent_span 0) is recorded
  // and none of its spans is open, so record children before their root.
  void Record(const TraceEvent& event);

  // Mints the next span id (1-based, monotonic, deterministic).
  uint64_t NextId() { return ++last_id_; }

  // Interned component/stage names: ids are dense, in first-use order.
  uint16_t Intern(std::string_view name);
  const std::string& Name(uint16_t id) const { return names_[id]; }

  // Ring accounting (zero while the ring is off).
  size_t size() const { return events_.size(); }
  size_t capacity() const { return capacity_; }
  // Events overwritten because the ring was full.
  uint64_t dropped() const { return dropped_; }
  // Every span recorded, whether or not the ring kept it.
  uint64_t total_recorded() const { return total_recorded_; }
  sim::Engine* engine() const { return engine_; }

  // Mirrors ring-wrap drops into a registry counter (obs.trace.dropped) so
  // overflow shows up in metric snapshots and BENCH_*.json, not just here.
  void SetDroppedCounter(Counter* counter) { dropped_counter_ = counter; }

  // The streaming critical-path state every recorded span feeds.
  CriticalPathFold& fold() { return *fold_; }
  const CriticalPathFold& fold() const { return *fold_; }

  // Visits the ring's events oldest-first.
  void ForEach(const std::function<void(const TraceEvent&)>& fn) const;

  // Chrome trace_event JSON of the ring (ts/dur in microseconds of simulated
  // time). Span linkage rides in args.{trace,span,parent}; ring-drop
  // accounting in otherData.{dropped,total_recorded}. With a timeline, each
  // series also emits ph:"C" counter events (per-window rate for counter
  // series, p95 for sampled ones), so telemetry curves render as counter
  // tracks above the spans in Perfetto / chrome://tracing.
  std::string ToChromeJson(const TimelineSnapshot* timeline = nullptr) const;
  // Returns false when the file cannot be opened for writing.
  bool WriteChromeJson(const std::string& path, const TimelineSnapshot* timeline = nullptr) const;

 private:
  friend class Span;

  // A finished span: feeds the fold and, when enabled, the ring. `opened`:
  // a Span opened it, so the fold counted it as open until now.
  void Finish(uint64_t trace_id, const SpanRecord& span, uint64_t chunk_no, bool opened);

  sim::Engine* engine_;
  std::unique_ptr<CriticalPathFold> fold_;
  std::deque<std::string> names_;  // A deque: name_ids_ keys view into it.
  std::unordered_map<std::string_view, uint16_t> name_ids_;
  size_t capacity_ = 0;
  size_t head_ = 0;  // Index of the oldest event once the ring has wrapped.
  uint64_t dropped_ = 0;
  uint64_t total_recorded_ = 0;
  uint64_t last_id_ = 0;
  Counter* dropped_counter_ = nullptr;
  std::vector<TraceEvent> events_;
};

// RAII span: stamps `begin` from the engine clock at construction and records
// the span on End() (or destruction, if End() was never called). Move-only;
// a moved-from span records nothing.
//
// With a parent TraceContext the span joins that trace; without one (or with
// an invalid context) it roots a new trace (trace_id == its own span_id).
// context() is available immediately after construction, so children can be
// spawned while the span is still open.
class Span {
 public:
  Span() = default;
  Span(TraceBuffer* buffer, std::string_view component, std::string_view stage, int node,
       int client, uint64_t chunk_no);
  Span(TraceBuffer* buffer, std::string_view component, std::string_view stage, int node,
       int client, uint64_t chunk_no, TraceContext parent);
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  void End();
  bool active() const { return buffer_ != nullptr; }
  sim::Time begin() const { return record_.begin; }
  // The context children should parent under. Valid even after End() — the
  // ids outlive the recording.
  TraceContext context() const { return {trace_id_, record_.span_id}; }

 private:
  TraceBuffer* buffer_ = nullptr;
  uint64_t trace_id_ = 0;
  uint64_t chunk_no_ = 0;
  SpanRecord record_;
};

}  // namespace linefs::obs

#endif  // SRC_OBS_TRACE_H_
