#include "src/pmem/region.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <new>

namespace linefs::pmem {

namespace {

constexpr size_t kMaxPooledBlocks = 4096;  // 8 GB worth of 2 MB blocks.

// Bits first..last (inclusive) of a page's 64-bit lines mask.
uint64_t LineBits(uint64_t first, uint64_t last) {
  return ((2ULL << last) - 1) & ~((1ULL << first) - 1);
}

// Size class of a slot block holding `count` (1..8) lines: log2 of its
// lines, rounded up.
int SlotClass(uint64_t count) { return std::bit_width(count - 1); }

}  // namespace

// Benchmarks construct Regions by the hundred; reusing blocks avoids
// re-paying allocation + fault-in each time. Single-threaded by design (the
// whole simulator is).
std::vector<Region::Block>& Region::BlockPool() {
  static std::vector<Block> pool;
  return pool;
}

Region::Region(uint64_t size) : size_(size) {
  dirs_.resize((size + (1ULL << kDirShift) - 1) >> kDirShift);
}

Region::~Region() {
  std::vector<Block>& pool = BlockPool();
  for (Block& block : blocks_) {
    if (pool.size() < kMaxPooledBlocks) {
      pool.push_back(std::move(block));
    }
  }
}

void Region::CheckRange(const char* op, uint64_t offset, uint64_t n) const {
  if (n > size_ || offset > size_ - n) {
    std::fprintf(stderr, "pmem::Region::%s out of range: offset %" PRIu64 " len %" PRIu64
                 " region size %" PRIu64 "\n", op, offset, n, size_);
    std::abort();
  }
}

uint8_t* Region::Carve(Cursor& cursor, uint64_t bytes) {
  if (cursor.used + bytes > kBlockSize) {
    std::vector<Block>& pool = BlockPool();
    if (!pool.empty()) {
      blocks_.push_back(std::move(pool.back()));
      pool.pop_back();
    } else {
      // Left uninitialised.
      Block block(static_cast<uint8_t*>(std::aligned_alloc(kBlockSize, kBlockSize)));
      if (!block) {
        throw std::bad_alloc();
      }
#ifdef MADV_HUGEPAGE
      madvise(block.get(), kBlockSize, MADV_HUGEPAGE);  // Best effort.
#endif
      blocks_.push_back(std::move(block));
    }
    cursor.block = blocks_.back().get();
    cursor.used = 0;
  }
  uint8_t* piece = cursor.block + cursor.used;
  cursor.used += bytes;
  bytes_backed_ += bytes;
  return piece;
}

uint8_t* Region::AllocSlots(int slot_class) {
  uint8_t*& head = free_slots_[slot_class];
  if (head == nullptr) {
    return Carve(slot_cursor_, kLineSize << slot_class);
  }
  uint8_t* slots = head;
  std::memcpy(&head, slots, sizeof(head));
  bytes_backed_ += kLineSize << slot_class;
  return slots;
}

void Region::FreeSlots(uint8_t* slots, int slot_class) {
  uint8_t*& head = free_slots_[slot_class];
  std::memcpy(slots, &head, sizeof(head));
  head = slots;
  bytes_backed_ -= kLineSize << slot_class;
}

uint64_t Region::LineOffset(uint64_t lines, uint64_t line) {
  if (std::popcount(lines) > static_cast<int>(kMaxSlotLines)) {
    return line << kLineShift;
  }
  return static_cast<uint64_t>(std::popcount(lines & ((1ULL << line) - 1))) << kLineShift;
}

uint8_t* Region::WritableRange(uint64_t offset, uint64_t n) {
  std::unique_ptr<Directory>& dir = dirs_[offset >> kDirShift];
  if (!dir) {
    dir = std::make_unique<Directory>();  // Value-init: all pages unbacked.
  }
  uint64_t idx = (offset >> kPageShift) & (kPagesPerDir - 1);
  uint8_t*& page = dir->pages[idx];
  uint64_t& lines = dir->lines[idx];
  uint64_t begin = offset & (kPageSize - 1);
  uint64_t end = begin + n;
  assert(n > 0 && end <= kPageSize);
  uint64_t first = begin >> kLineShift;
  uint64_t last = (end - 1) >> kLineShift;
  uint64_t old = lines;
  uint64_t fresh = LineBits(first, last) & ~old;
  if (fresh != 0) {
    uint64_t now = old | fresh;
    auto old_count = static_cast<uint64_t>(std::popcount(old));
    auto count = static_cast<uint64_t>(std::popcount(now));
    if (old_count <= kMaxSlotLines) {
      // Unbacked or slot-packed: the new layout may need another backing.
      uint8_t* to = page;
      if (count > kMaxSlotLines) {
        to = Carve(page_cursor_, kPageSize);
      } else if (old == 0 || SlotClass(count) != SlotClass(old_count)) {
        to = AllocSlots(SlotClass(count));
      }
      // Move the written lines to their new places, highest first: shifting
      // in place, a line's new slot is then never one still to be moved.
      for (uint64_t rest = old; rest != 0;) {
        uint64_t line = 63 - std::countl_zero(rest);
        rest &= ~(1ULL << line);
        uint8_t* dst = to + LineOffset(now, line);
        const uint8_t* src = page + LineOffset(old, line);
        if (dst != src) {
          std::memcpy(dst, src, kLineSize);
        }
      }
      if (to != page && old != 0) {
        FreeSlots(page, SlotClass(old_count));
      }
      page = to;
    }
    // Only the two end lines can hold bytes the write does not cover, and
    // those bytes are stale (blocks come dirty from the pool or free list).
    if ((fresh >> first) & 1) {
      std::memset(page + LineOffset(now, first), 0, begin & (kLineSize - 1));
    }
    if ((fresh >> last) & 1) {
      std::memset(page + LineOffset(now, last) + (end & (kLineSize - 1)), 0,
                  (kLineSize - (end & (kLineSize - 1))) & (kLineSize - 1));
    }
    lines = now;
  }
  return page + LineOffset(lines, first) + (begin & (kLineSize - 1));
}

// Both copies walk the range page by page but issue one memcpy per run of
// bytes that are adjacent in host memory (full pages carved in write order
// are; a page's written lines in one range are consecutive slots).

void Region::CopyIn(uint64_t offset, const void* src, uint64_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(src);
  // The pending run: host bytes [run, run + run_len) take p's next bytes.
  uint8_t* run = nullptr;
  uint64_t run_len = 0;
  auto flush = [&] {
    std::memcpy(run, p, run_len);
    p += run_len;
    run_len = 0;
  };
  while (n > 0) {
    uint64_t in_page = std::min(n, kPageSize - (offset & (kPageSize - 1)));
    uint8_t* dst = WritableRange(offset, in_page);
    if (run_len > 0 && dst != run + run_len) {
      flush();
    }
    if (run_len == 0) {
      run = dst;
    }
    run_len += in_page;
    offset += in_page;
    n -= in_page;
  }
  if (run_len > 0) {
    flush();
  }
}

void Region::CopyOut(uint64_t offset, void* dst, uint64_t n) const {
  uint8_t* p = static_cast<uint8_t*>(dst);
  // The pending run: host bytes [run, run + run_len), or zeros if run is null.
  const uint8_t* run = nullptr;
  uint64_t run_len = 0;
  auto flush = [&] {
    if (run != nullptr) {
      std::memcpy(p, run, run_len);
    } else {
      std::memset(p, 0, run_len);
    }
    p += run_len;
    run_len = 0;
  };
  while (n > 0) {
    uint64_t begin = offset & (kPageSize - 1);
    uint64_t in_page = std::min(n, kPageSize - begin);
    const Directory* dir = dirs_[offset >> kDirShift].get();
    uint64_t idx = (offset >> kPageShift) & (kPagesPerDir - 1);
    uint64_t want = LineBits(begin >> kLineShift, (begin + in_page - 1) >> kLineShift);
    // An unbacked page has no written lines.
    uint64_t lines = dir != nullptr ? dir->lines[idx] : 0;
    uint64_t have = lines & want;
    if (have != 0 && have != want) {
      // Written and unwritten lines mixed: copy this page on its own.
      if (run_len > 0) {
        flush();
      }
      CopyOutLines(dir->pages[idx], lines, begin, p, in_page);
      p += in_page;
    } else {
      // All lines written (contiguous in a slot block too) or none.
      const uint8_t* src = have != 0 ? dir->pages[idx] + LineOffset(lines, begin >> kLineShift) +
                                           (begin & (kLineSize - 1))
                                     : nullptr;
      bool extends = src == nullptr ? run == nullptr : run != nullptr && src == run + run_len;
      if (run_len > 0 && !extends) {
        flush();
      }
      if (run_len == 0) {
        run = src;
      }
      run_len += in_page;
    }
    offset += in_page;
    n -= in_page;
  }
  if (run_len > 0) {
    flush();
  }
}

void Region::CopyOutLines(const uint8_t* page, uint64_t lines, uint64_t offset, uint8_t* dst,
                          uint64_t n) {
  uint64_t end = offset + n;
  while (offset < end) {
    // One memcpy or memset per stretch of lines in the same state.
    bool written = (lines >> (offset >> kLineShift)) & 1;
    uint64_t stop = std::min(end, ((offset >> kLineShift) + 1) << kLineShift);
    while (stop < end && ((lines >> (stop >> kLineShift)) & 1) == written) {
      stop = std::min(end, stop + kLineSize);
    }
    if (written) {
      // Consecutive written lines are consecutive in a slot block too.
      std::memcpy(dst, page + LineOffset(lines, offset >> kLineShift) + (offset & (kLineSize - 1)),
                  stop - offset);
    } else {
      std::memset(dst, 0, stop - offset);
    }
    dst += stop - offset;
    offset = stop;
  }
}

void Region::Write(uint64_t offset, const void* src, uint64_t n) {
  CheckRange("Write", offset, n);
  // UndoEntry::len is 32 bits: a larger write could not be rolled back.
  if (n > UINT32_MAX) {
    std::fprintf(stderr, "pmem::Region::Write too large to undo: offset %" PRIu64 " len %" PRIu64
                 " region size %" PRIu64 "\n", offset, n, size_);
    std::abort();
  }
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
  CheckRange("Copy", src, n);
  static std::vector<uint8_t> scratch;
  if (scratch.size() < n) {
    scratch.resize(n);
  }
  CopyOut(src, scratch.data(), n);
  Write(dst, scratch.data(), n);
}

void Region::Read(uint64_t offset, void* dst, uint64_t n) const {
  CheckRange("Read", offset, n);
  CopyOut(offset, dst, n);
}

// Whether a persist still takes effect under FailAfterPersists().
bool Region::ConsumePersist() {
  if (persists_left_ == kNoFailure) {
    return true;
  }
  if (persists_left_ == 0) {
    return false;
  }
  --persists_left_;
  return true;
}

void Region::Persist(uint64_t offset, uint64_t n) {
  if (!ConsumePersist()) {
    return;
  }
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
  if (!ConsumePersist()) {
    return;
  }
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
  persists_left_ = kNoFailure;
  PersistAll();
  ++crash_count_;
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
