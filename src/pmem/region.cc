#include "src/pmem/region.h"

#include <algorithm>
#include <cassert>

namespace linefs::pmem {

namespace {

// Process-wide recycled slabs. Benchmarks construct Regions by the hundred;
// reusing backing pages avoids re-paying allocation + fault-in each time.
// Single-threaded by design (the whole simulator is).
std::vector<std::unique_ptr<uint8_t[]>>& SlabPool() {
  static std::vector<std::unique_ptr<uint8_t[]>> pool;
  return pool;
}
constexpr size_t kMaxPooledSlabs = 4096;  // 8 GB worth of 2 MB slabs.

}  // namespace

Region::Region(uint64_t size) : size_(size) {
  slabs_.resize((size + kSlabSize - 1) >> kSlabShift);
}

Region::~Region() {
  std::vector<std::unique_ptr<uint8_t[]>>& pool = SlabPool();
  for (std::unique_ptr<uint8_t[]>& slab : slabs_) {
    if (slab && pool.size() < kMaxPooledSlabs) {
      pool.push_back(std::move(slab));
    }
  }
}

uint8_t* Region::SlabFor(uint64_t offset, bool create) {
  uint64_t idx = offset >> kSlabShift;
  assert(idx < slabs_.size());
  if (!slabs_[idx] && create) {
    std::vector<std::unique_ptr<uint8_t[]>>& pool = SlabPool();
    if (!pool.empty()) {
      slabs_[idx] = std::move(pool.back());
      pool.pop_back();
      std::memset(slabs_[idx].get(), 0, kSlabSize);  // Recycled slabs are dirty.
    } else {
      slabs_[idx] = std::make_unique<uint8_t[]>(kSlabSize);  // Value-init zeroes.
    }
  }
  return slabs_[idx] ? slabs_[idx].get() + (offset & (kSlabSize - 1)) : nullptr;
}

void Region::CopyIn(uint64_t offset, const void* src, uint64_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(src);
  while (n > 0) {
    uint64_t in_slab = std::min<uint64_t>(n, kSlabSize - (offset & (kSlabSize - 1)));
    uint8_t* dst = SlabFor(offset, /*create=*/true);
    std::memcpy(dst, p, in_slab);
    offset += in_slab;
    p += in_slab;
    n -= in_slab;
  }
}

void Region::CopyOut(uint64_t offset, void* dst, uint64_t n) const {
  uint8_t* p = static_cast<uint8_t*>(dst);
  while (n > 0) {
    uint64_t in_slab = std::min<uint64_t>(n, kSlabSize - (offset & (kSlabSize - 1)));
    uint64_t idx = offset >> kSlabShift;
    assert(idx < slabs_.size());
    if (slabs_[idx]) {
      std::memcpy(p, slabs_[idx].get() + (offset & (kSlabSize - 1)), in_slab);
    } else {
      std::memset(p, 0, in_slab);
    }
    offset += in_slab;
    p += in_slab;
    n -= in_slab;
  }
}

void Region::Write(uint64_t offset, const void* src, uint64_t n) {
  assert(offset + n <= size_);
  // Capture undo data so an un-persisted write can be rolled back on Crash().
  // Old bytes append to the shared arena: no per-write allocation.
  UndoEntry undo;
  undo.offset = offset;
  undo.arena_off = undo_arena_.size();
  undo.len = static_cast<uint32_t>(n);
  undo_arena_.resize(undo_arena_.size() + n);
  CopyOut(offset, undo_arena_.data() + undo.arena_off, n);
  live_.push_back(static_cast<uint32_t>(undo_log_.size()));
  undo_log_.push_back(undo);
  CopyIn(offset, src, n);
  total_bytes_written_ += n;
}

void Region::Fill(uint64_t offset, uint8_t value, uint64_t n) {
  static std::vector<uint8_t> scratch;
  if (scratch.size() < n) {
    scratch.resize(n);
  }
  std::memset(scratch.data(), value, n);
  Write(offset, scratch.data(), n);
}

void Region::Copy(uint64_t dst, uint64_t src, uint64_t n) {
  static std::vector<uint8_t> scratch;
  if (scratch.size() < n) {
    scratch.resize(n);
  }
  CopyOut(src, scratch.data(), n);
  Write(dst, scratch.data(), n);
}

void Region::Read(uint64_t offset, void* dst, uint64_t n) const {
  assert(offset + n <= size_);
  CopyOut(offset, dst, n);
}

void Region::Persist(uint64_t offset, uint64_t n) {
  // Kill undo entries fully contained in the persisted range. The live set is
  // small (the file system persists the ranges it writes almost immediately),
  // so an unordered scan beats maintaining an index on the write path.
  uint64_t end = offset + n;
  size_t i = 0;
  while (i < live_.size()) {
    UndoEntry& e = undo_log_[live_[i]];
    if (e.offset >= offset && e.offset + e.len <= end) {
      e.dead = true;
      live_[i] = live_.back();
      live_.pop_back();
    } else {
      ++i;
    }
  }
  if (live_.empty()) {
    // Nothing left to roll back: drop the dead records now instead of letting
    // large writes (replica chunk images) pile up in the arena until the
    // compaction threshold.
    undo_log_.clear();
    undo_arena_.clear();
    return;
  }
  MaybeCompact();
}

void Region::PersistAll() {
  undo_log_.clear();
  undo_arena_.clear();
  live_.clear();
}

void Region::Crash() {
  // Roll back newest-first so overlapping writes unwind correctly.
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    if (!it->dead) {
      CopyIn(it->offset, undo_arena_.data() + it->arena_off, it->len);
    }
  }
  PersistAll();
}

uint64_t Region::unpersisted_bytes() const {
  uint64_t total = 0;
  for (uint32_t idx : live_) {
    total += undo_log_[idx].len;
  }
  return total;
}

size_t Region::pending_undo_count() const { return live_.size(); }

void Region::MaybeCompact() {
  if (undo_log_.size() < 1024 || live_.size() * 2 > undo_log_.size()) {
    return;
  }
  // In-place: slide live records (and their arena bytes) down over the dead
  // ones, preserving append order for Crash(). Capacity is kept, so steady
  // state does no allocation.
  size_t w = 0;
  uint64_t arena_w = 0;
  for (size_t r = 0; r < undo_log_.size(); ++r) {
    UndoEntry e = undo_log_[r];
    if (e.dead) {
      continue;
    }
    std::memmove(undo_arena_.data() + arena_w, undo_arena_.data() + e.arena_off, e.len);
    e.arena_off = arena_w;
    arena_w += e.len;
    undo_log_[w++] = e;
  }
  undo_log_.resize(w);
  undo_arena_.resize(arena_w);
  live_.resize(w);
  for (uint32_t i = 0; i < static_cast<uint32_t>(w); ++i) {
    live_[i] = i;
  }
}

}  // namespace linefs::pmem
