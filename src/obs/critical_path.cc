#include "src/obs/critical_path.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "src/sim/check.h"

namespace linefs::obs {
namespace {

constexpr const char* kCanonicalNames[kNumCanonicalStages] = {
    "ack",   "checksum", "compress",      "copy",     "encrypt",
    "other", "persist",  "replicate-net", "validate", "wait",
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  if (idx >= sorted.size()) {
    idx = sorted.size() - 1;
  }
  return sorted[idx];
}

uint64_t NodeBit(int node) {
  LINEFS_CHECK(node >= 0 && node < CriticalPathFold::kMaxNodes);
  return uint64_t{1} << node;
}

// Slowest first; equal durations by trace id.
bool Slower(sim::Time a_duration, uint64_t a_trace, sim::Time b_duration, uint64_t b_trace) {
  return a_duration != b_duration ? a_duration > b_duration : a_trace < b_trace;
}

}  // namespace

CanonicalStageId CriticalPathAnalyzer::CanonicalStageOf(std::string_view raw) {
  // Host<->NIC / replica-local data movement.
  if (raw == "fetch" || raw == "copy" || raw == "repl_copy") {
    return kStageCopy;
  }
  if (raw == "validate") {
    return kStageValidate;
  }
  if (raw == "compress") {
    return kStageCompress;
  }
  // Optional pipeline plugins (src/pipeline stage API).
  if (raw == "checksum") {
    return kStageChecksum;
  }
  if (raw == "xor_encrypt") {
    return kStageEncrypt;
  }
  // Anything that puts bytes on (or takes them off) the fabric.
  if (raw == "transfer" || raw == "rpc" || raw == "repl_recv" || raw == "forward" ||
      raw == "retransmit" || raw == "replicate") {
    return kStageReplicateNet;
  }
  // Making data visible/durable in the shared area.
  if (raw == "publish" || raw == "digest") {
    return kStagePersist;
  }
  if (raw == "ack") {
    return kStageAck;
  }
  // Container spans: the operation existing but no stage doing work.
  if (raw == "fsync" || raw == "fsync_wait" || raw == "publish_kick" ||
      raw == "handoff_flush") {
    return kStageWait;
  }
  return kStageOther;
}

std::string CriticalPathAnalyzer::CanonicalStage(std::string_view raw) {
  return kCanonicalNames[CanonicalStageOf(raw)];
}

// --- CriticalPathFold --------------------------------------------------------

void CriticalPathFold::Open(uint64_t trace_id) {
  auto it = open_.find(trace_id);
  if (it != open_.end()) {
    ++it->second.open;
  } else if (FindFolded(trace_id) == nullptr) {
    open_[trace_id].open = 1;
  }
}

void CriticalPathFold::Close(uint64_t trace_id, const SpanRecord& span, bool opened) {
  auto it = open_.find(trace_id);
  if (it == open_.end()) {
    if (FoldedOp* op = FindFolded(trace_id)) {
      // Begins at or past the root's end, so the sweep would clip it away.
      ++op->span_count;
      op->node_mask |= NodeBit(span.node);
      return;
    }
    it = open_.try_emplace(trace_id).first;
  }
  OpenTrace& trace = it->second;
  trace.spans.push_back(span);
  if (opened && trace.open > 0) {
    --trace.open;
  }
  if (span.parent_span == 0) {
    trace.root_done = true;
  }
  if (trace.root_done && trace.open == 0) {
    Fold(trace_id, trace);
    open_.erase(it);
  }
}

void CriticalPathFold::Fold(uint64_t trace_id, const OpenTrace& trace) {
  std::vector<FoldedSegment> segments;
  FoldedOp op;
  if (trace.spans.empty() ||
      !Attribute(trace_id, trace.spans, &segments, /*all_segments=*/callback_ != nullptr, &op)) {
    return;
  }
  if (folded_.empty() || folded_.back().trace_id < trace_id) {
    folded_.push_back(op);
  } else {
    folded_.insert(std::upper_bound(folded_.begin(), folded_.end(), trace_id,
                                    [](uint64_t id, const FoldedOp& f) {
                                      return id < f.trace_id;
                                    }),
                   op);
  }
  if (callback_) {
    callback_(Breakdown(op, &segments));
  }
  if (WouldKeep(op.root_stage, op.duration(), trace_id)) {
    Keep(op, std::move(segments));
  }
}

bool CriticalPathFold::Attribute(uint64_t trace_id, const std::vector<SpanRecord>& spans,
                                 std::vector<FoldedSegment>* segments, bool all_segments,
                                 FoldedOp* out) const {
  const size_t n = spans.size();

  // (span id, index) sorted by span id, the first record of an id first. A
  // sorted vector, reused from trace to trace, allocates nothing per span.
  std::vector<std::pair<uint64_t, int>>& index = scratch_.index;
  index.clear();
  for (size_t i = 0; i < n; ++i) {
    index.emplace_back(spans[i].span_id, static_cast<int>(i));
  }
  std::sort(index.begin(), index.end());
  // Each span's parent in this trace (-1: none).
  std::vector<int>& parent = scratch_.parent;
  parent.resize(n);
  for (size_t i = 0; i < n; ++i) {
    auto it = std::lower_bound(index.begin(), index.end(),
                               std::make_pair(spans[i].parent_span, 0));
    bool found = spans[i].parent_span != 0 && it != index.end() &&
                 it->first == spans[i].parent_span;
    parent[i] = found ? it->second : -1;
  }

  // Root: a span with no parent in this trace. Several orphans (a parent
  // still open when the trace is read) leave the earliest as the root; the
  // rest clip into it like ordinary children.
  int root = -1;
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    if (parent[i] >= 0) {
      continue;
    }
    if (root < 0 || s.begin < spans[root].begin ||
        (s.begin == spans[root].begin && s.span_id < spans[root].span_id)) {
      root = static_cast<int>(i);
    }
  }
  if (root < 0) {
    return false;
  }

  FoldedOp& op = *out;
  op = FoldedOp{};
  op.trace_id = trace_id;
  op.root_component = spans[root].component;
  op.root_stage = spans[root].stage;
  op.client = spans[root].client;
  op.begin = spans[root].begin;
  op.end = std::max(spans[root].end, op.begin);
  op.span_count = static_cast<uint32_t>(n);
  for (const SpanRecord& s : spans) {
    op.node_mask |= NodeBit(s.node);
  }

  if (n > kMaxSpansPerTrace) {
    // Too large for the sweep: keep the op visible but mark the whole
    // interval unattributed.
    op.stage_ns[kStageOther] = op.duration();
    op.stages = 1u << kStageOther;
    return true;
  }
  bool want_segments = all_segments || WouldKeep(op.root_stage, op.duration(), trace_id);

  // Depth of every span (root = 0); spans whose parent chain dangles attach
  // under the root at depth 1.
  std::vector<int>& depth = scratch_.depth;
  std::vector<int>& chain = scratch_.chain;
  depth.assign(n, -1);
  depth[root] = 0;
  for (size_t i = 0; i < n; ++i) {
    chain.clear();
    int cur = static_cast<int>(i);
    while (depth[cur] < 0) {
      chain.push_back(cur);
      int up = parent[cur];
      if (up < 0 || up == cur || chain.size() > n) {
        break;
      }
      cur = up;
    }
    int d;
    if (depth[cur] >= 0) {
      d = depth[cur];
    } else {
      // Dangling chain: the topmost unresolved span attaches under the root.
      d = 1;
      depth[cur] = d;
      chain.pop_back();
    }
    for (size_t k = chain.size(); k-- > 0;) {
      depth[chain[k]] = ++d;
    }
  }

  // Clip to the root interval: each span that keeps a length contributes a
  // begin and an end edge.
  std::vector<sim::Time>& clipped_begin = scratch_.clipped_begin;
  std::vector<Edge>& edges = scratch_.edges;
  clipped_begin.resize(n);
  edges.clear();
  for (size_t i = 0; i < n; ++i) {
    sim::Time begin = std::max(spans[i].begin, op.begin);
    sim::Time end = std::min(spans[i].end, op.end);
    clipped_begin[i] = begin;
    if (end > begin) {
      edges.push_back(Edge{begin, static_cast<int>(i)});
      edges.push_back(Edge{end, ~static_cast<int>(i)});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) { return a.at < b.at; });

  // Boundary sweep: attribute each elementary interval to the deepest
  // active span (ties: latest begin, then highest span id).
  std::vector<int>& active = scratch_.active;
  active.clear();
  for (size_t e = 0; e < edges.size();) {
    sim::Time a = edges[e].at;
    for (; e < edges.size() && edges[e].at == a; ++e) {
      int span = edges[e].span;
      if (span >= 0) {
        active.push_back(span);
      } else {
        *std::find(active.begin(), active.end(), ~span) = active.back();
        active.pop_back();
      }
    }
    if (e == edges.size()) {
      break;
    }
    sim::Time b = edges[e].at;
    int best = -1;
    for (int cs : active) {
      if (best < 0 || depth[cs] > depth[best] ||
          (depth[cs] == depth[best] &&
           (clipped_begin[cs] > clipped_begin[best] ||
            (clipped_begin[cs] == clipped_begin[best] &&
             spans[cs].span_id > spans[best].span_id)))) {
        best = cs;
      }
    }
    if (best < 0) {
      continue;  // Gap outside every span (cannot happen inside the root).
    }
    const SpanRecord& s = spans[best];
    uint8_t stage = best == root ? uint8_t{kStageWait} : Canonical(s.stage);
    op.stage_ns[stage] += b - a;
    op.stages |= static_cast<uint16_t>(1u << stage);
    if (!want_segments) {
      continue;
    }
    if (!segments->empty() && segments->back().end == a && segments->back().stage == stage &&
        segments->back().raw_stage == s.stage && segments->back().node == s.node) {
      segments->back().end = b;
    } else {
      segments->push_back(FoldedSegment{a, b, s.node, s.stage, stage});
    }
  }
  return true;
}

bool CriticalPathFold::WouldKeep(uint16_t root_stage, sim::Time duration,
                                 uint64_t trace_id) const {
  if (root_stage >= kept_.size() || kept_[root_stage].size() < kSlowestKept) {
    return true;
  }
  const Kept& fastest = kept_[root_stage].back();
  return Slower(duration, trace_id, fastest.duration, fastest.trace_id);
}

void CriticalPathFold::Keep(const FoldedOp& op, std::vector<FoldedSegment> segments) {
  if (op.root_stage >= kept_.size()) {
    kept_.resize(op.root_stage + 1);
  }
  std::vector<Kept>& kept = kept_[op.root_stage];
  auto pos = std::find_if(kept.begin(), kept.end(), [&](const Kept& k) {
    return Slower(op.duration(), op.trace_id, k.duration, k.trace_id);
  });
  kept.insert(pos, Kept{op.trace_id, op.duration(), std::move(segments)});
  if (kept.size() > kSlowestKept) {
    kept.pop_back();
  }
}

const std::vector<FoldedSegment>* CriticalPathFold::KeptSegments(const FoldedOp& op) const {
  if (op.root_stage >= kept_.size()) {
    return nullptr;
  }
  for (const Kept& k : kept_[op.root_stage]) {
    if (k.trace_id == op.trace_id) {
      return &k.segments;
    }
  }
  return nullptr;
}

FoldedOp* CriticalPathFold::FindFolded(uint64_t trace_id) {
  // folded_ is sorted by trace id, and a new trace's id is above all of them.
  if (folded_.empty() || trace_id > folded_.back().trace_id) {
    return nullptr;
  }
  auto it = std::lower_bound(folded_.begin(), folded_.end(), trace_id,
                             [](const FoldedOp& f, uint64_t id) { return f.trace_id < id; });
  return it == folded_.end() || it->trace_id != trace_id ? nullptr : &*it;
}

uint8_t CriticalPathFold::Canonical(uint16_t raw_stage) const {
  while (canonical_.size() <= raw_stage) {
    canonical_.push_back(CriticalPathAnalyzer::CanonicalStageOf(
        names_->Name(static_cast<uint16_t>(canonical_.size()))));
  }
  return canonical_[raw_stage];
}

std::vector<std::pair<FoldedOp, std::vector<FoldedSegment>>> CriticalPathFold::OpenOps() const {
  std::vector<std::pair<FoldedOp, std::vector<FoldedSegment>>> ops;
  for (const auto& [trace_id, trace] : open_) {
    FoldedOp op;
    std::vector<FoldedSegment> segments;
    if (!trace.spans.empty() &&
        Attribute(trace_id, trace.spans, &segments, /*all_segments=*/true, &op)) {
      ops.emplace_back(op, std::move(segments));
    }
  }
  return ops;
}

OpBreakdown CriticalPathFold::Breakdown(const FoldedOp& op,
                                        const std::vector<FoldedSegment>* segments) const {
  OpBreakdown b;
  b.trace_id = op.trace_id;
  b.root_component = names_->Name(op.root_component);
  b.root_stage = names_->Name(op.root_stage);
  b.client = op.client;
  b.begin = op.begin;
  b.end = op.end;
  b.span_count = op.span_count;
  for (int node = 0; node < kMaxNodes; ++node) {
    if ((op.node_mask >> node) & 1) {
      b.nodes.insert(node);
    }
  }
  for (size_t s = 0; s < kNumCanonicalStages; ++s) {
    if ((op.stages >> s) & 1) {
      b.stage_ns[kCanonicalNames[s]] = op.stage_ns[s];
    }
  }
  if (segments != nullptr) {
    b.segments.reserve(segments->size());
    for (const FoldedSegment& seg : *segments) {
      b.segments.push_back(CriticalSegment{kCanonicalNames[seg.stage],
                                           names_->Name(seg.raw_stage), seg.node, seg.begin,
                                           seg.end});
    }
  }
  return b;
}

// --- CriticalPathAnalyzer ----------------------------------------------------

std::vector<OpBreakdown> CriticalPathAnalyzer::Operations(std::string_view root_stage) const {
  const CriticalPathFold& fold = buffer_->fold();
  auto wanted = [&](const FoldedOp& op) {
    return root_stage.empty() || buffer_->Name(op.root_stage) == root_stage;
  };
  std::vector<OpBreakdown> ops;
  for (const FoldedOp& op : fold.folded()) {
    if (wanted(op)) {
      ops.push_back(fold.Breakdown(op, fold.KeptSegments(op)));
    }
  }
  for (const auto& [op, segments] : fold.OpenOps()) {
    if (wanted(op)) {
      ops.push_back(fold.Breakdown(op, &segments));
    }
  }
  std::sort(ops.begin(), ops.end(), [](const OpBreakdown& a, const OpBreakdown& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.trace_id < b.trace_id;
  });
  return ops;
}

std::map<std::string, sim::Time> CriticalPathAnalyzer::StageTable(
    const std::vector<OpBreakdown>& ops) {
  std::map<std::string, sim::Time> table;
  for (const OpBreakdown& op : ops) {
    for (const auto& [stage, ns] : op.stage_ns) {
      table[stage] += ns;
    }
  }
  return table;
}

JsonValue CriticalPathAnalyzer::ReportJson(size_t max_exemplars) const {
  const CriticalPathFold& fold = buffer_->fold();
  max_exemplars = std::min(max_exemplars, CriticalPathFold::kSlowestKept);

  // One row per operation; a trace still open carries its own segments.
  struct Row {
    const FoldedOp* op;
    const std::vector<FoldedSegment>* segments;
  };
  std::vector<std::pair<FoldedOp, std::vector<FoldedSegment>>> open = fold.OpenOps();
  std::map<std::string, std::vector<Row>> groups;
  std::vector<std::vector<Row>*> by_stage_id;  // Root stage name id -> group.
  auto add = [&](const FoldedOp& op, const std::vector<FoldedSegment>* segments) {
    if (op.root_stage >= by_stage_id.size()) {
      by_stage_id.resize(op.root_stage + 1, nullptr);
    }
    std::vector<Row>*& group = by_stage_id[op.root_stage];
    if (group == nullptr) {
      group = &groups[buffer_->Name(op.root_stage)];
    }
    group->push_back(Row{&op, segments});
  };
  for (const FoldedOp& op : fold.folded()) {
    add(op, nullptr);
  }
  for (const auto& [op, segments] : open) {
    add(op, &segments);
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("total_ops", JsonValue(static_cast<double>(fold.folded().size() + open.size())));
  JsonValue groups_json = JsonValue::Object();
  for (auto& [stage_name, group] : groups) {
    // Oldest root first, so the e2e total sums in a fixed order.
    std::sort(group.begin(), group.end(), [](const Row& a, const Row& b) {
      return a.op->begin != b.op->begin ? a.op->begin < b.op->begin
                                        : a.op->trace_id < b.op->trace_id;
    });
    std::vector<double> durations;
    durations.reserve(group.size());
    double total_e2e_us = 0.0;
    std::array<sim::Time, kNumCanonicalStages> table{};
    uint16_t stages_seen = 0;
    for (const Row& row : group) {
      double us = sim::ToMicros(row.op->duration());
      durations.push_back(us);
      total_e2e_us += us;
      for (size_t s = 0; s < kNumCanonicalStages; ++s) {
        table[s] += row.op->stage_ns[s];
      }
      stages_seen |= row.op->stages;
    }
    std::sort(durations.begin(), durations.end());

    JsonValue g = JsonValue::Object();
    g.Set("ops", JsonValue(static_cast<double>(group.size())));
    JsonValue e2e = JsonValue::Object();
    e2e.Set("mean_us", JsonValue(durations.empty() ? 0.0
                                                   : total_e2e_us /
                                                         static_cast<double>(durations.size())));
    e2e.Set("p50_us", JsonValue(Percentile(durations, 0.50)));
    e2e.Set("p99_us", JsonValue(Percentile(durations, 0.99)));
    e2e.Set("max_us", JsonValue(durations.empty() ? 0.0 : durations.back()));
    e2e.Set("total_us", JsonValue(total_e2e_us));
    g.Set("e2e", std::move(e2e));

    JsonValue stages = JsonValue::Object();
    double attributed_us = 0.0;
    for (size_t s = 0; s < kNumCanonicalStages; ++s) {
      if (((stages_seen >> s) & 1) == 0) {
        continue;
      }
      JsonValue sj = JsonValue::Object();
      double us = sim::ToMicros(table[s]);
      attributed_us += us;
      sj.Set("total_us", JsonValue(us));
      sj.Set("pct", JsonValue(total_e2e_us > 0.0 ? 100.0 * us / total_e2e_us : 0.0));
      stages.Set(kCanonicalNames[s], std::move(sj));
    }
    g.Set("stages", std::move(stages));
    // By construction the sweep partitions each root interval, so this equals
    // e2e.total_us (modulo oversized traces binned as "other").
    g.Set("attributed_us", JsonValue(attributed_us));

    // Slowest operations, segment by segment. The fold kept the segments of
    // the slowest folded ones; open traces carry their own.
    std::vector<Row> slowest = group;
    size_t shown = std::min(max_exemplars, slowest.size());
    std::partial_sort(slowest.begin(), slowest.begin() + static_cast<std::ptrdiff_t>(shown),
                      slowest.end(), [](const Row& a, const Row& b) {
                        return Slower(a.op->duration(), a.op->trace_id, b.op->duration(),
                                      b.op->trace_id);
                      });
    JsonValue exemplars = JsonValue::Array();
    for (size_t i = 0; i < shown; ++i) {
      const FoldedOp& op = *slowest[i].op;
      const std::vector<FoldedSegment>* segments =
          slowest[i].segments != nullptr ? slowest[i].segments : fold.KeptSegments(op);
      LINEFS_CHECK(segments != nullptr);
      JsonValue ex = JsonValue::Object();
      ex.Set("trace_id", JsonValue(static_cast<double>(op.trace_id)));
      ex.Set("root", JsonValue(buffer_->Name(op.root_component)));
      ex.Set("client", JsonValue(op.client));
      ex.Set("begin_us", JsonValue(sim::ToMicros(op.begin)));
      ex.Set("duration_us", JsonValue(sim::ToMicros(op.duration())));
      ex.Set("span_count", JsonValue(static_cast<double>(op.span_count)));
      JsonValue nodes = JsonValue::Array();
      for (int node = 0; node < CriticalPathFold::kMaxNodes; ++node) {
        if ((op.node_mask >> node) & 1) {
          nodes.Append(JsonValue(node));
        }
      }
      ex.Set("nodes", std::move(nodes));
      constexpr size_t kMaxSegments = 64;
      JsonValue segs = JsonValue::Array();
      for (size_t k = 0; k < segments->size() && k < kMaxSegments; ++k) {
        const FoldedSegment& seg = (*segments)[k];
        JsonValue sj = JsonValue::Object();
        sj.Set("stage", JsonValue(kCanonicalNames[seg.stage]));
        sj.Set("raw", JsonValue(buffer_->Name(seg.raw_stage)));
        sj.Set("node", JsonValue(seg.node));
        sj.Set("begin_us", JsonValue(sim::ToMicros(seg.begin)));
        sj.Set("dur_us", JsonValue(sim::ToMicros(seg.end - seg.begin)));
        segs.Append(std::move(sj));
      }
      ex.Set("segments", std::move(segs));
      if (segments->size() > kMaxSegments) {
        ex.Set("segments_truncated", JsonValue(true));
      }
      exemplars.Append(std::move(ex));
    }
    g.Set("exemplars", std::move(exemplars));
    groups_json.Set(stage_name, std::move(g));
  }
  doc.Set("groups", std::move(groups_json));
  return doc;
}

}  // namespace linefs::obs
