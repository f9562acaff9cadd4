#include "src/obs/trace.h"

#include <cstdio>
#include <utility>

#include "src/obs/critical_path.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/sim/check.h"

namespace linefs::obs {

TraceBuffer::TraceBuffer(sim::Engine* engine)
    : engine_(engine), fold_(std::make_unique<CriticalPathFold>(this)) {}

TraceBuffer::~TraceBuffer() = default;

void TraceBuffer::EnableRing(size_t capacity) {
  capacity_ = capacity == 0 ? 1 : capacity;
  events_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

uint16_t TraceBuffer::Intern(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) {
    return it->second;
  }
  LINEFS_CHECK(names_.size() < UINT16_MAX);
  auto id = static_cast<uint16_t>(names_.size());
  name_ids_.emplace(names_.emplace_back(name), id);
  return id;
}

void TraceBuffer::Record(const TraceEvent& event) {
  SpanRecord span;
  span.span_id = event.span_id;
  span.parent_span = event.parent_span;
  span.begin = event.begin;
  span.end = event.end;
  span.node = event.node;
  span.client = event.client;
  span.component = Intern(event.component);
  span.stage = Intern(event.stage);
  Finish(event.trace_id, span, event.chunk_no, /*opened=*/false);
}

void TraceBuffer::Finish(uint64_t trace_id, const SpanRecord& span, uint64_t chunk_no,
                         bool opened) {
  ++total_recorded_;
  if (trace_id != 0) {
    fold_->Close(trace_id, span, opened);
  }
  if (capacity_ == 0) {
    return;
  }
  TraceEvent event{Name(span.component), Name(span.stage), span.node, span.client,
                   chunk_no, span.begin, span.end, trace_id, span.span_id, span.parent_span};
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return;
  }
  // Ring full: overwrite the oldest slot.
  events_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
  if (dropped_counter_ != nullptr) {
    dropped_counter_->Increment();
  }
}

void TraceBuffer::ForEach(const std::function<void(const TraceEvent&)>& fn) const {
  for (size_t i = 0; i < events_.size(); ++i) {
    fn(events_[(head_ + i) % events_.size()]);
  }
}

std::string TraceBuffer::ToChromeJson(const TimelineSnapshot* timeline) const {
  // Streamed emission: a 64K-event ring would be wasteful to round-trip
  // through the JsonValue DOM.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[240];
  ForEach([&](const TraceEvent& e) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(e.stage);
    out += "\",\"cat\":\"";
    out += JsonEscape(e.component);
    out += "\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"chunk_no\":%llu,\"trace\":%llu,\"span\":%llu,"
                  "\"parent\":%llu}}",
                  sim::ToMicros(e.begin), sim::ToMicros(e.end - e.begin), e.node, e.client,
                  static_cast<unsigned long long>(e.chunk_no),
                  static_cast<unsigned long long>(e.trace_id),
                  static_cast<unsigned long long>(e.span_id),
                  static_cast<unsigned long long>(e.parent_span));
    out += buf;
  });
  if (timeline != nullptr) {
    for (const auto& [name, snap] : *timeline) {
      // One counter track per series on pid 0: rate/window for counter
      // series, per-window p95 for sampled ones.
      bool sampled = snap.kind == SeriesKind::kSampled;
      for (const TimeSeriesWindow& w : snap.windows) {
        if (!first) {
          out += ',';
        }
        first = false;
        out += "{\"name\":\"";
        out += JsonEscape(name);
        out += "\",\"cat\":\"timeline\",\"ph\":\"C\",\"pid\":0,\"tid\":0";
        double value = sampled ? static_cast<double>(w.p95) : static_cast<double>(w.count);
        std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"args\":{\"%s\":%.3f}}",
                      sim::ToMicros(static_cast<sim::Time>(w.index) * snap.window_width),
                      sampled ? "p95" : "count", value);
        out += buf;
      }
    }
  }
  out += "],\"otherData\":{";
  std::snprintf(buf, sizeof(buf), "\"dropped\":%llu,\"total_recorded\":%llu",
                static_cast<unsigned long long>(dropped_),
                static_cast<unsigned long long>(total_recorded_));
  out += buf;
  out += "}}";
  return out;
}

bool TraceBuffer::WriteChromeJson(const std::string& path, const TimelineSnapshot* timeline) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::string json = ToChromeJson(timeline);
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

Span::Span(TraceBuffer* buffer, std::string_view component, std::string_view stage, int node,
           int client, uint64_t chunk_no)
    : Span(buffer, component, stage, node, client, chunk_no, TraceContext{}) {}

Span::Span(TraceBuffer* buffer, std::string_view component, std::string_view stage, int node,
           int client, uint64_t chunk_no, TraceContext parent)
    : buffer_(buffer), chunk_no_(chunk_no) {
  if (buffer_ == nullptr) {
    return;
  }
  record_.node = node;
  record_.client = client;
  record_.component = buffer_->Intern(component);
  record_.stage = buffer_->Intern(stage);
  record_.begin = buffer_->engine()->Now();
  record_.span_id = buffer_->NextId();
  if (parent.valid()) {
    trace_id_ = parent.trace_id;
    record_.parent_span = parent.parent_span;
  } else {
    // No (or invalid) parent: this span roots a fresh trace.
    trace_id_ = record_.span_id;
    record_.parent_span = 0;
  }
  buffer_->fold_->Open(trace_id_);
}

Span::Span(Span&& other) noexcept
    : buffer_(std::exchange(other.buffer_, nullptr)),
      trace_id_(other.trace_id_),
      chunk_no_(other.chunk_no_),
      record_(other.record_) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    buffer_ = std::exchange(other.buffer_, nullptr);
    trace_id_ = other.trace_id_;
    chunk_no_ = other.chunk_no_;
    record_ = other.record_;
  }
  return *this;
}

Span::~Span() { End(); }

void Span::End() {
  if (buffer_ == nullptr) {
    return;
  }
  record_.end = buffer_->engine()->Now();
  buffer_->Finish(trace_id_, record_, chunk_no_, /*opened=*/true);
  buffer_ = nullptr;
}

}  // namespace linefs::obs
