// Persistent-memory emulation.
//
// A Region models one node's PM (Intel Optane App-Direct substitute): a
// byte-addressable space with an explicit persistence step, matching PMDK's
// store + clwb/sfence model. Writes land in the "CPU cache" (volatile until
// persisted); Persist() makes a range durable. Crash() models power/OS failure
// by rolling back every unpersisted write (undo data is captured per write),
// restoring the most recent durable image.
//
// Backing storage is allocated lazily, so multi-GB simulated regions only
// consume host memory where written. Untouched bytes read as 0, and reading
// them backs nothing. A two-level page table maps region offsets to 4KB
// pages: one directory per 2MB of region space, created on first touch, each
// holding 512 page entries. An entry is a host pointer plus a 64-bit mask of
// the page's 64-byte lines that hold written bytes; the other lines read as
// zero whatever the host bytes are.
//
// PM is written by the 64-byte line (a log entry header is one line), and
// with payloads elided a page usually holds one or two written lines. So a
// page with at most 8 written lines lives in a slot block that holds only
// those lines, in line order: line L sits at slot popcount(mask below L), so
// the mask is the only index. Slot blocks come in size classes of 1, 2, 4
// and 8 lines, each with its own free list; a page that outgrows its block
// moves to the next class, and one whose block has room shifts its higher
// lines up in place. The 9th written line promotes the page to a full 4KB
// page (line L at byte L * 64), and a first write covering more than 8 lines
// backs a full page directly. Whether a page is full is thus a function of
// its mask: more than 8 bits set.
//
// Full pages and slot blocks are carved, each by its own cursor, out of 2MB
// host blocks the Region owns, so pages written in order sit next to each
// other in host memory and CopyIn/CopyOut merge them into one memcpy. Host
// blocks are 2MB-aligned and advised as huge pages, so where the host has
// transparent huge pages one fault and one TLB entry cover a block instead of
// 512. They are recycled through a process-wide pool because benchmarks
// construct hundreds of Regions back to back, and reusing blocks avoids
// re-paying mmap/munmap + page faults.
//
// Neither pages nor slots are zeroed when carved (pooled blocks come back
// dirty, and freed slots hold old lines). The first write into a line zeroes
// the part of the line it does not cover, so the cost is tens of bytes per
// fresh line, not 4KB per page. bytes_backed() is the real footprint: full
// pages x 4KB plus the bytes of live slot blocks.
//
// The file system stores through the durable calls (write, then persist at
// once), which copy each byte once and capture no undo data. Undo capture
// serves volatile Write()s and durable stores made while a persist failure
// is armed. It is allocation-free in steady state: old data goes into a
// shared append-only arena, entries are fixed-size records, and the set of
// live (unpersisted) entries is a small flat vector — writers persist what
// they write almost immediately, so scanning the live set beats maintaining
// an ordered index.
//
// Timing is NOT modelled here: PM latency/bandwidth costs are charged by the
// hardware layer (hw::Node's PM links); a Region is pure state.

#ifndef SRC_PMEM_REGION_H_
#define SRC_PMEM_REGION_H_

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/sim/result.h"

namespace linefs::pmem {

class Region {
 public:
  explicit Region(uint64_t size);
  ~Region();
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  uint64_t size() const { return size_; }

  // Volatile store: visible to reads immediately, durable only after Persist().
  void Write(uint64_t offset, const void* src, uint64_t n);

  // Durable stores: each equals the volatile store followed by Persist() of
  // the same range. When that persist takes effect there is nothing to roll
  // back, so they capture no undo bytes; while FailAfterPersists() is armed
  // the persist may not take effect, so they capture like Write().
  void WriteDurable(uint64_t offset, const void* src, uint64_t n);
  // Fills [offset, offset+n) with `value`.
  void FillDurable(uint64_t offset, uint8_t value, uint64_t n);
  // Region-internal copy (DMA-style data movement) between ranges that do
  // not overlap.
  void CopyDurable(uint64_t dst, uint64_t src, uint64_t n);

  // Reads current (possibly unpersisted) content.
  void Read(uint64_t offset, void* dst, uint64_t n) const;

  template <typename T>
  void WriteObject(uint64_t offset, const T& obj) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(offset, &obj, sizeof(T));
  }

  template <typename T>
  void WriteObjectDurable(uint64_t offset, const T& obj) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteDurable(offset, &obj, sizeof(T));
  }

  template <typename T>
  T ReadObject(uint64_t offset) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T obj;
    Read(offset, &obj, sizeof(T));
    return obj;
  }

  // Makes all writes fully contained in [offset, offset+n) durable.
  void Persist(uint64_t offset, uint64_t n);

  // Makes everything durable (fence + drain).
  void PersistAll();

  // Simulates a crash: rolls back all unpersisted writes (newest first) so the
  // region reflects exactly the last durable state.
  void Crash();

  // Models a power failure inside a multi-step update: after `n` more
  // Persist()/PersistAll() calls, persists stop taking effect, so the next
  // Crash() rolls back to the durable state at that point (and ends the
  // failure).
  void FailAfterPersists(uint64_t n) { persists_left_ = n; }

  // Number of Crash() calls so far: DRAM caches of region contents compare it
  // with the value they were loaded at to detect a rollback under them.
  uint64_t crash_count() const { return crash_count_; }

  // Number of bytes currently written but not yet persisted.
  uint64_t unpersisted_bytes() const;
  size_t pending_undo_count() const;

  // Lifetime counters (write amplification studies).
  uint64_t total_bytes_written() const { return total_bytes_written_; }
  // Old bytes copied aside so that a crash could roll a store back.
  uint64_t undo_bytes_captured() const { return undo_bytes_captured_; }

  // Host memory backing this region: full pages x 4KB + live slot blocks.
  uint64_t bytes_backed() const { return bytes_backed_; }

 private:
  static constexpr uint64_t kPageShift = 12;  // 4 KB pages.
  static constexpr uint64_t kPageSize = 1ULL << kPageShift;
  static constexpr uint64_t kDirShift = 21;  // One directory per 2 MB.
  static constexpr uint64_t kPagesPerDir = 1ULL << (kDirShift - kPageShift);
  static constexpr uint64_t kBlockSize = 1ULL << 21;  // 2 MB host blocks.
  static constexpr uint64_t kLineShift = 6;  // 64 lines of 64 bytes per page.
  static constexpr uint64_t kLineSize = 1ULL << kLineShift;
  // A page stays slot-packed up to 8 written lines: its block is then at most
  // an eighth of a page, and shifting lines on insert stays a few memcpys.
  static constexpr uint64_t kMaxSlotLines = 8;
  // Slot blocks hold 1 << class lines (1, 2, 4, 8): power-of-two classes waste
  // under half a block, and a growing page changes block at most 3 times.
  static constexpr int kSlotClasses = 4;

  // The pages of 2 MB of region space: per page, its host backing (a full
  // page or a slot block, told apart by the mask's popcount) and the mask of
  // its written lines.
  struct Directory {
    std::array<uint8_t*, kPagesPerDir> pages{};
    std::array<uint64_t, kPagesPerDir> lines{};
  };

  // A 2 MB host block from std::aligned_alloc.
  struct FreeBlock {
    void operator()(uint8_t* block) const { std::free(block); }
  };
  using Block = std::unique_ptr<uint8_t, FreeBlock>;

  // Carves pieces off the front of the newest host block it took.
  struct Cursor {
    uint8_t* block = nullptr;
    uint64_t used = kBlockSize;
  };

  // One captured write: `arena_off/len` locate the old bytes in undo_arena_.
  struct UndoEntry {
    uint64_t offset = 0;
    uint64_t arena_off = 0;
    uint32_t len = 0;
    bool dead = false;
  };

  bool ConsumePersist();
  // Aborts unless [offset, offset + n) lies inside the region.
  void CheckRange(const char* op, uint64_t offset, uint64_t n) const;
  // Copies the current bytes of [offset, offset + n) into the undo log as a
  // live entry, so Crash() restores them unless a Persist() covers it.
  void CaptureUndo(const char* op, uint64_t offset, uint64_t n);
  // The durable-store protocol: `store` writes [offset, offset + n) through
  // StoreRuns, then the range is persisted.
  template <typename Fn>
  void StoreDurable(const char* op, uint64_t offset, uint64_t n, Fn store);
  // Walks [offset, offset + n) page by page, backing what it touches, and
  // calls emit(host, done, len) once per run of bytes adjacent in host
  // memory: `host` takes the range's bytes [done, done + len).
  template <typename Fn>
  void StoreRuns(uint64_t offset, uint64_t n, Fn emit);
  // Host address of `offset`, for a write of n bytes that must not cross a
  // page edge: backs the page or moves it to a larger block if needed and
  // marks the range's lines written, zeroing what the range leaves uncovered
  // of a line written for the first time. The range is contiguous in host
  // memory.
  uint8_t* WritableRange(uint64_t offset, uint64_t n);
  // Copies n bytes at page offset `offset` (within one partly written page
  // backed at `page`, with written lines `lines`) a run of lines at a time.
  static void CopyOutLines(const uint8_t* page, uint64_t lines, uint64_t offset, uint8_t* dst,
                           uint64_t n);
  // Offset of written line `line` in its page's backing.
  static uint64_t LineOffset(uint64_t lines, uint64_t line);
  uint8_t* Carve(Cursor& cursor, uint64_t bytes);
  uint8_t* AllocSlots(int slot_class);
  void FreeSlots(uint8_t* slots, int slot_class);
  void CopyIn(uint64_t offset, const void* src, uint64_t n);
  void CopyOut(uint64_t offset, void* dst, uint64_t n) const;
  void MaybeCompact();
  // Process-wide recycled host blocks.
  static std::vector<Block>& BlockPool();

  uint64_t size_;
  std::vector<std::unique_ptr<Directory>> dirs_;
  // Host blocks full pages and slot blocks are carved from.
  std::vector<Block> blocks_;
  Cursor page_cursor_;
  Cursor slot_cursor_;
  // Per slot class, a list of free slot blocks linked through their first
  // bytes.
  std::array<uint8_t*, kSlotClasses> free_slots_{};
  uint64_t bytes_backed_ = 0;
  // Append-ordered undo records (Crash unwinds newest first) + their data.
  std::vector<UndoEntry> undo_log_;
  std::vector<uint8_t> undo_arena_;
  // Indices into undo_log_ of not-yet-persisted entries, unordered. Persist
  // scans this (small) set and swap-removes what it kills.
  std::vector<uint32_t> live_;
  uint64_t total_bytes_written_ = 0;
  uint64_t undo_bytes_captured_ = 0;
  uint64_t crash_count_ = 0;
  static constexpr uint64_t kNoFailure = UINT64_MAX;
  uint64_t persists_left_ = kNoFailure;  // See FailAfterPersists().
};

}  // namespace linefs::pmem

#endif  // SRC_PMEM_REGION_H_
