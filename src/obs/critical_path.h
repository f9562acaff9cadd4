// Critical-path reconstruction and per-stage latency attribution.
//
// Spans are linked by (trace_id, span_id, parent_span) into per-operation
// trees (one tree per fsync / publish kick). CriticalPathFold receives every
// span as it ends, keeps a trace only while it is open, and folds it once its
// root has ended and none of its spans is still open, answering "where did
// this operation's latency go?" the way the LineFS paper's Fig. 5 / Fig. 12
// breakdowns do:
//
//   1. Find the root span (parent_span == 0, or the earliest span whose
//      parent is not in the trace) and clip every descendant to its interval.
//   2. Sweep the root interval boundary-to-boundary; each elementary interval
//      is attributed to the *deepest* active span (ties: latest begin, then
//      highest span id — both deterministic). The root itself attributes to
//      "wait": time the operation spent with no pipeline stage active.
//   3. Map raw stage names onto the paper's canonical stages — copy,
//      validate, compress, replicate-net, persist, ack — and sum.
//
// Because the sweep partitions the root interval exactly, each operation's
// per-stage times sum to its end-to-end latency by construction. A folded
// operation keeps one compact FoldedOp; the attributed segments are kept only
// for the slowest few operations per root stage (the report's exemplars), or
// handed to a fold callback that wants every one. A span that starts after
// its trace was folded lies past the root's end, so it only adds to that
// operation's span count and node set. CriticalPathAnalyzer reads the folded
// state (plus any trace still open, attributed as it stands) after the run;
// ReportJson() aggregates operations per root stage into a stage table plus
// the slowest operations as exemplar traces, and is embedded into
// BENCH_*.json by bench/harness.h.

#ifndef SRC_OBS_CRITICAL_PATH_H_
#define SRC_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace linefs::obs {

// The canonical stage vocabulary, in name order: reports list stages by name.
enum CanonicalStageId : uint8_t {
  kStageAck,
  kStageChecksum,
  kStageCompress,
  kStageCopy,
  kStageEncrypt,
  kStageOther,
  kStagePersist,
  kStageReplicateNet,
  kStageValidate,
  kStageWait,
  kNumCanonicalStages,
};

// One attributed slice of an operation's critical path.
struct CriticalSegment {
  std::string stage;      // Canonical stage name ("copy", "replicate-net", ...).
  std::string raw_stage;  // Stage name as recorded ("fetch", "transfer", ...).
  int node = 0;
  sim::Time begin = 0;
  sim::Time end = 0;

  sim::Time duration() const { return end - begin; }
};

// Per-operation latency attribution: one fsync / publish kick.
struct OpBreakdown {
  uint64_t trace_id = 0;
  std::string root_component;  // e.g. "libfs.0"
  std::string root_stage;      // e.g. "fsync"
  int client = 0;
  sim::Time begin = 0;
  sim::Time end = 0;
  size_t span_count = 0;
  std::set<int> nodes;                       // Every node the trace touched.
  std::map<std::string, sim::Time> stage_ns;  // Canonical stage -> attributed time.
  // The attributed timeline, in order. From CriticalPathAnalyzer, only the
  // slowest operations per root stage and traces still open carry it.
  std::vector<CriticalSegment> segments;

  sim::Time duration() const { return end - begin; }
};

// A folded operation, compact: what the reports need of every op.
struct FoldedOp {
  uint64_t trace_id = 0;
  sim::Time begin = 0;
  sim::Time end = 0;
  std::array<sim::Time, kNumCanonicalStages> stage_ns{};
  uint64_t node_mask = 0;  // Bit n: the trace touched node n.
  uint32_t span_count = 0;
  int client = 0;
  uint16_t root_component = 0;  // Interned names (TraceBuffer::Name).
  uint16_t root_stage = 0;
  uint16_t stages = 0;  // Bit s: canonical stage s has an entry in stage_ns.

  sim::Time duration() const { return end - begin; }
};

// A segment with interned names, as the fold builds it.
struct FoldedSegment {
  sim::Time begin = 0;
  sim::Time end = 0;
  int node = 0;
  uint16_t raw_stage = 0;
  uint8_t stage = 0;  // CanonicalStageId.
};

class CriticalPathFold {
 public:
  // Traces with more spans than this are folded without a segment sweep
  // (their whole interval counts as "other"); none of the pipeline's traces
  // come close in practice.
  static constexpr size_t kMaxSpansPerTrace = 4096;
  // Operations whose segments are kept per root stage: the report's
  // exemplars.
  static constexpr size_t kSlowestKept = 3;
  // Node ids the node mask can hold.
  static constexpr int kMaxNodes = 64;

  using FoldCallback = std::function<void(const OpBreakdown&)>;

  explicit CriticalPathFold(const TraceBuffer* names) : names_(names) {}

  // Span lifecycle (TraceBuffer calls these). Open() counts a span into its
  // trace until Close(..., opened=true); a trace that has folded never
  // reopens. Close(..., opened=false) takes a span recorded whole.
  void Open(uint64_t trace_id);
  void Close(uint64_t trace_id, const SpanRecord& span, bool opened);

  // Hands every operation folded from now on, segments included, to `fn`.
  // Traces still open are not folded early: OpenOps() shows them.
  void SetFoldCallback(FoldCallback fn) { callback_ = std::move(fn); }

  // Folded operations, by trace id.
  const std::deque<FoldedOp>& folded() const { return folded_; }
  // Traces still open, attributed as they stand.
  std::vector<std::pair<FoldedOp, std::vector<FoldedSegment>>> OpenOps() const;
  // The kept segments of a folded operation (nullptr when not kept).
  const std::vector<FoldedSegment>* KeptSegments(const FoldedOp& op) const;
  // Expands a compact operation into its report form.
  OpBreakdown Breakdown(const FoldedOp& op, const std::vector<FoldedSegment>* segments) const;

 private:
  struct OpenTrace {
    std::vector<SpanRecord> spans;
    uint32_t open = 0;       // Spans started and not yet ended.
    bool root_done = false;  // The root (parent_span 0) has ended.
  };
  struct Kept {
    uint64_t trace_id = 0;
    sim::Time duration = 0;
    std::vector<FoldedSegment> segments;
  };
  // Where a span's clipped interval begins (span index) or ends (~index).
  struct Edge {
    sim::Time at = 0;
    int span = 0;
  };
  // Buffers the sweep reuses from one trace to the next.
  struct Scratch {
    std::vector<std::pair<uint64_t, int>> index;  // (span id, index), sorted.
    std::vector<int> parent;
    std::vector<int> depth;
    std::vector<int> chain;
    std::vector<sim::Time> clipped_begin;
    std::vector<Edge> edges;
    std::vector<int> active;
  };

  void Fold(uint64_t trace_id, const OpenTrace& trace);
  // Attributes `spans` into `op`; false when no span can be the root. Builds
  // `segments` when `all_segments` is set or the operation would be kept.
  bool Attribute(uint64_t trace_id, const std::vector<SpanRecord>& spans,
                 std::vector<FoldedSegment>* segments, bool all_segments, FoldedOp* op) const;
  // Whether an operation this slow would enter its root stage's kept set.
  bool WouldKeep(uint16_t root_stage, sim::Time duration, uint64_t trace_id) const;
  void Keep(const FoldedOp& op, std::vector<FoldedSegment> segments);
  FoldedOp* FindFolded(uint64_t trace_id);
  uint8_t Canonical(uint16_t raw_stage) const;

  const TraceBuffer* names_;
  std::unordered_map<uint64_t, OpenTrace> open_;
  std::deque<FoldedOp> folded_;  // Grows without copying what it holds.
  std::vector<std::vector<Kept>> kept_;  // By root stage name id, slowest first.
  mutable std::vector<uint8_t> canonical_;  // By raw stage name id.
  mutable Scratch scratch_;
  FoldCallback callback_;
};

class CriticalPathAnalyzer {
 public:
  explicit CriticalPathAnalyzer(const TraceBuffer* buffer) : buffer_(buffer) {}

  // Maps a recorded stage name onto the canonical stage vocabulary.
  static std::string CanonicalStage(std::string_view raw);
  static CanonicalStageId CanonicalStageOf(std::string_view raw);

  // Every operation of the run, oldest root first. root_stage filters on the
  // root span's stage name (empty = all). Segments are filled only for the
  // slowest operations per root stage and for traces still open; register a
  // fold callback before the run to see every operation's segments.
  std::vector<OpBreakdown> Operations(std::string_view root_stage = {}) const;

  // Sums canonical-stage time across operations.
  static std::map<std::string, sim::Time> StageTable(const std::vector<OpBreakdown>& ops);

  // JSON for BENCH_*.json: operations grouped by root stage, each group with
  // op count, end-to-end latency stats (mean/p50/p99/max), the per-stage
  // table (total + percent), and the slowest `max_exemplars` operations (at
  // most CriticalPathFold::kSlowestKept) as segment-level exemplar traces.
  JsonValue ReportJson(size_t max_exemplars = CriticalPathFold::kSlowestKept) const;

 private:
  const TraceBuffer* buffer_;
};

}  // namespace linefs::obs

#endif  // SRC_OBS_CRITICAL_PATH_H_
