#include "src/pmem/region.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <new>

#include "src/sim/check.h"

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

// A StoreRuns emitter that stores the bytes at `src`.
auto CopyFrom(const void* src) {
  return [p = static_cast<const uint8_t*>(src)](uint8_t* host, uint64_t done, uint64_t len) {
    std::memcpy(host, p + done, len);
  };
}

// The StoreRuns lender of a store that lends nothing.
bool LendNothing(uint64_t, uint64_t) { return false; }

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
#ifdef MADV_NOHUGEPAGE
      madvise(block.get(), kBlockSize, MADV_NOHUGEPAGE);  // Best effort.
#endif
      blocks_.push_back(std::move(block));
    }
    cursor.block = blocks_.back().get();
    cursor.used = 0;
  }
  uint8_t* piece = cursor.block + cursor.used;
  cursor.used += bytes;
  own_bytes_backed_ += bytes;
  return piece;
}

uint8_t* Region::AllocPage() {
  if (free_pages_ == nullptr) {
    return Carve(page_cursor_, kPageSize);
  }
  uint8_t* page = free_pages_;
  std::memcpy(&free_pages_, page, sizeof(free_pages_));
  own_bytes_backed_ += kPageSize;
  return page;
}

uint8_t* Region::AllocSlots(int slot_class) {
  uint8_t*& head = free_slots_[slot_class];
  if (head == nullptr) {
    return Carve(slot_cursor_, kLineSize << slot_class);
  }
  uint8_t* slots = head;
  std::memcpy(&head, slots, sizeof(head));
  own_bytes_backed_ += kLineSize << slot_class;
  return slots;
}

void Region::FreeSlots(uint8_t* slots, int slot_class) {
  uint8_t*& head = free_slots_[slot_class];
  std::memcpy(slots, &head, sizeof(head));
  head = slots;
  own_bytes_backed_ -= kLineSize << slot_class;
}

uint32_t Region::Pin(const SharedBytes& bytes) {
  auto [it, added] = loan_of_buffer_.try_emplace(bytes.buffer_id(), 0);
  if (added) {
    if (free_loans_.empty()) {
      loans_.emplace_back();
      it->second = static_cast<uint32_t>(loans_.size());
    } else {
      it->second = free_loans_.back();
      free_loans_.pop_back();
    }
    loans_[it->second - 1].buffer = bytes.Buffer();
    pinned_bytes_ += bytes.buffer_bytes();
  }
  return it->second;
}

void Region::Unpin(uint32_t loan) {
  Loan& held = loans_[loan - 1];
  if (--held.pages > 0) {
    return;
  }
  pinned_bytes_ -= held.buffer.buffer_bytes();
  loan_of_buffer_.erase(held.buffer.buffer_id());
  held.buffer = SharedBytes();
  free_loans_.push_back(loan);
}

std::vector<SharedBytes> Region::pinned_buffers() const {
  std::vector<SharedBytes> buffers;
  for (const Loan& loan : loans_) {
    if (loan.pages > 0) {
      buffers.push_back(loan.buffer);
    }
  }
  return buffers;
}

Region::Directory& Region::Dir(uint64_t offset) {
  std::unique_ptr<Directory>& dir = dirs_[offset >> kDirShift];
  if (!dir) {
    dir = std::make_unique<Directory>();  // Value-init: all pages unbacked.
  }
  return *dir;
}

void Region::Release(Directory& dir, uint64_t idx) {
  uint8_t*& page = dir.pages[idx];
  uint64_t& lines = dir.lines[idx];
  if (uint32_t loan = LoanOf(dir, idx); loan != 0) {
    (*dir.loans)[idx] = 0;
    Unpin(loan);
  } else if (std::popcount(lines) > static_cast<int>(kMaxSlotLines)) {
    std::memcpy(page, &free_pages_, sizeof(free_pages_));
    free_pages_ = page;
    own_bytes_backed_ -= kPageSize;
  } else if (lines != 0) {
    FreeSlots(page, SlotClass(static_cast<uint64_t>(std::popcount(lines))));
  }
  page = nullptr;
  lines = 0;
}

void Region::Lend(uint64_t offset, const uint8_t* host, uint32_t loan) {
  Directory& dir = Dir(offset);
  uint64_t idx = (offset >> kPageShift) & (kPagesPerDir - 1);
  ++loans_[loan - 1].pages;  // Before Release: the page may borrow it already.
  Release(dir, idx);
  if (dir.loans == nullptr) {
    dir.loans = std::make_unique<std::array<uint32_t, kPagesPerDir>>();
  }
  (*dir.loans)[idx] = loan;
  // Only read through: every store copies the page first (WritableRange).
  dir.pages[idx] = const_cast<uint8_t*>(host);
  dir.lines[idx] = ~0ULL;
}

SharedBytes Region::Held(uint64_t offset, uint64_t n) const {
  uint64_t first = (offset + kPageSize - 1) & ~(kPageSize - 1);
  uint64_t last = (offset + n) & ~(kPageSize - 1);
  bool whole_pages = first < last;
  const uint8_t* host = nullptr;
  uint32_t loan = whole_pages ? BorrowedRun(first, last - first, &host)
                              : BorrowedRun(offset, n, &host);
  if (loan == 0) {
    return SharedBytes();
  }
  const SharedBytes& buffer = loans_[loan - 1].buffer;
  // Where `offset` falls in the buffer, if the range lies inside it.
  auto pos = static_cast<uint64_t>(host - buffer.data());
  uint64_t head = whole_pages ? first - offset : 0;
  if (pos < head || pos - head + n > buffer.size()) {
    return SharedBytes();
  }
  pos -= head;
  if (whole_pages) {
    // The partly covered edge pages are the region's own (an imported range
    // copies them): their bytes must match the buffer's.
    std::array<uint8_t, kPageSize> edge;
    uint64_t tail = offset + n - last;
    CopyOut(offset, edge.data(), head);
    if (std::memcmp(edge.data(), buffer.data() + pos, head) != 0) {
      return SharedBytes();
    }
    CopyOut(last, edge.data(), tail);
    if (std::memcmp(edge.data(), buffer.data() + pos + (last - offset), tail) != 0) {
      return SharedBytes();
    }
  }
  return buffer.Slice(pos, n);
}

uint32_t Region::BorrowedRun(uint64_t offset, uint64_t n, const uint8_t** host) const {
  uint64_t first = offset & ~(kPageSize - 1);
  uint32_t loan = 0;
  const uint8_t* base = nullptr;  // Host address of `first`.
  for (uint64_t at = first; at < offset + n; at += kPageSize) {
    const Directory* dir = dirs_[at >> kDirShift].get();
    uint64_t idx = (at >> kPageShift) & (kPagesPerDir - 1);
    uint32_t page_loan = dir != nullptr ? LoanOf(*dir, idx) : 0;
    if (page_loan == 0) {
      return 0;
    }
    if (at == first) {
      loan = page_loan;
      base = dir->pages[idx];
    } else if (page_loan != loan || dir->pages[idx] != base + (at - first)) {
      return 0;
    }
  }
  *host = base + (offset - first);
  return loan;
}

uint64_t Region::LineOffset(uint64_t lines, uint64_t line) {
  if (std::popcount(lines) > static_cast<int>(kMaxSlotLines)) {
    return line << kLineShift;
  }
  return static_cast<uint64_t>(std::popcount(lines & ((1ULL << line) - 1))) << kLineShift;
}

uint8_t* Region::WritableRange(uint64_t offset, uint64_t n) {
  Directory& dir = Dir(offset);
  uint64_t idx = (offset >> kPageShift) & (kPagesPerDir - 1);
  uint8_t*& page = dir.pages[idx];
  uint64_t& lines = dir.lines[idx];
  uint64_t begin = offset & (kPageSize - 1);
  uint64_t end = begin + n;
  // Debug-only: this runs once per page of every store, and its callers
  // (StoreRuns) cut ranges at page edges by construction.
  assert(n > 0 && end <= kPageSize);
  if (uint32_t loan = LoanOf(dir, idx); loan != 0) {
    // Copy-on-write: the page gets its own copy before the store, or only a
    // page of its own if the store covers all of it. A full page either way.
    uint8_t* own = AllocPage();
    if (n < kPageSize) {
      std::memcpy(own, page, kPageSize);
    }
    (*dir.loans)[idx] = 0;
    Unpin(loan);
    page = own;
  }
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
        to = AllocPage();
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

// Stores and CopyOut walk the range page by page but touch host memory once
// per run of bytes that are adjacent there (full pages carved in write order
// are; a page's written lines in one range are consecutive slots).

template <typename LendFn, typename Fn>
void Region::StoreRuns(uint64_t offset, uint64_t n, LendFn lend, Fn emit) {
  // The pending run: host bytes [run, run + run_len) take the range's bytes
  // from `run_from` on.
  uint8_t* run = nullptr;
  uint64_t run_from = 0;
  uint64_t run_len = 0;
  for (uint64_t done = 0; done < n;) {
    uint64_t at = offset + done;
    uint64_t in_page = std::min(n - done, kPageSize - (at & (kPageSize - 1)));
    if (in_page == kPageSize && lend(at, done)) {
      if (run_len > 0) {
        emit(run, run_from, run_len);
        run_len = 0;
      }
    } else {
      uint8_t* dst = WritableRange(at, in_page);
      if (run_len > 0 && dst != run + run_len) {
        emit(run, run_from, run_len);
        run_len = 0;
      }
      if (run_len == 0) {
        run = dst;
        run_from = done;
      }
      run_len += in_page;
    }
    done += in_page;
  }
  if (run_len > 0) {
    emit(run, run_from, run_len);
  }
}

void Region::CopyIn(uint64_t offset, const void* src, uint64_t n) {
  StoreRuns(offset, n, LendNothing, CopyFrom(src));
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

void Region::CaptureUndo(const char* op, uint64_t offset, uint64_t n) {
  // UndoEntry::len is 32 bits: a larger store could not be rolled back.
  if (n > UINT32_MAX) {
    std::fprintf(stderr, "pmem::Region::%s too large to undo: offset %" PRIu64 " len %" PRIu64
                 " region size %" PRIu64 "\n", op, offset, n, size_);
    std::abort();
  }
  // Old bytes append to the shared arena: no per-write allocation.
  UndoEntry undo;
  undo.offset = offset;
  undo.arena_off = undo_arena_.size();
  undo.len = static_cast<uint32_t>(n);
  undo_arena_.resize(undo_arena_.size() + n);
  CopyOut(offset, undo_arena_.data() + undo.arena_off, n);
  live_.push_back(static_cast<uint32_t>(undo_log_.size()));
  undo_log_.push_back(undo);
  undo_bytes_captured_ += n;
}

void Region::Write(uint64_t offset, const void* src, uint64_t n) {
  CheckRange("Write", offset, n);
  CaptureUndo("Write", offset, n);
  CopyIn(offset, src, n);
  total_bytes_written_ += n;
}

template <typename LendFn, typename Fn>
void Region::StoreDurable(const char* op, uint64_t offset, uint64_t n, LendFn lend, Fn store) {
  CheckRange(op, offset, n);
  // A persist that takes effect would kill this store's undo entry at once,
  // so none is captured. Only an armed FailAfterPersists() can make the
  // Persist below a no-op and leave a crash needing the old bytes; the
  // store then copies, like the Write() it stands for.
  bool armed = persists_left_ != kNoFailure;
  if (armed) {
    CaptureUndo(op, offset, n);
  }
  StoreRuns(
      offset, n, [&](uint64_t at, uint64_t done) { return !armed && lend(at, done); }, store);
  total_bytes_written_ += n;
  Persist(offset, n);
}

void Region::WriteDurable(uint64_t offset, const void* src, uint64_t n) {
  StoreDurable("Write", offset, n, LendNothing, CopyFrom(src));
}

void Region::WriteDurable(uint64_t offset, const SharedBytes& bytes) {
  uint32_t loan = 0;  // Pinned at the first page lent.
  StoreDurable(
      "Write", offset, bytes.size(),
      [&](uint64_t at, uint64_t done) {
        if (loan == 0) {
          loan = Pin(bytes);
        }
        Lend(at, bytes.data() + done, loan);
        return true;
      },
      CopyFrom(bytes.data()));
}

void Region::FillDurable(uint64_t offset, uint8_t value, uint64_t n) {
  StoreDurable("Fill", offset, n, LendNothing,
               [value](uint8_t* host, uint64_t, uint64_t len) { std::memset(host, value, len); });
}

void Region::CopyDurable(uint64_t dst, uint64_t src, uint64_t n) {
  CheckRange("Copy", src, n);
  // Straight from the source pages into the destination's, so no byte may be
  // read after the copy overwrote it. Storing into one page only moves that
  // page's lines, lending a page frees only that page's backing, and CopyOut
  // looks every page up anew.
  LINEFS_CHECK(src + n <= dst || dst + n <= src);
  StoreDurable(
      "Copy", dst, n,
      [this, src](uint64_t at, uint64_t done) {
        const uint8_t* host = nullptr;
        uint32_t loan = BorrowedRun(src + done, kPageSize, &host);
        if (loan != 0) {
          Lend(at, host, loan);
        }
        return loan != 0;
      },
      [this, src](uint8_t* host, uint64_t done, uint64_t len) { CopyOut(src + done, host, len); });
}

void Region::Read(uint64_t offset, void* dst, uint64_t n) const {
  CheckRange("Read", offset, n);
  CopyOut(offset, dst, n);
}

SharedBytes Region::Share(uint64_t offset, uint64_t n) {
  CheckRange("Share", offset, n);
  if (n == 0) {
    return SharedBytes();
  }
  if (SharedBytes held = Held(offset, n); !held.empty()) {
    return held;
  }
  SharedBytes image = SharedBytes::Filled(n, [&](uint8_t* bytes) { CopyOut(offset, bytes, n); });
  // The wholly covered pages now read the image instead: same bytes, and
  // their own backing goes back to the free lists.
  uint32_t loan = 0;
  uint64_t first = (offset + kPageSize - 1) & ~(kPageSize - 1);
  for (uint64_t at = first; at + kPageSize <= offset + n; at += kPageSize) {
    if (loan == 0) {
      loan = Pin(image);
    }
    Lend(at, image.data() + (at - offset), loan);
  }
  return image;
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
