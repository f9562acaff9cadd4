// Unit tests for the persistent-memory emulation: persist/crash semantics,
// slot-packed, full and borrowed page backing, and the block allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "src/fslib/types.h"
#include "src/pmem/alloc.h"
#include "src/pmem/region.h"
#include "src/pmem/shared_bytes.h"

namespace linefs::pmem {
namespace {

TEST(Region, FreshRegionReadsZero) {
  Region region(1 << 20);
  std::vector<uint8_t> buf(128, 0xFF);
  region.Read(4096, buf.data(), buf.size());
  for (uint8_t b : buf) {
    EXPECT_EQ(b, 0);
  }
}

TEST(Region, WriteReadRoundTrip) {
  Region region(1 << 20);
  const char msg[] = "persist-and-publish";
  region.Write(100, msg, sizeof(msg));
  char out[sizeof(msg)] = {};
  region.Read(100, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST(Region, WriteAcrossPageAndBlockBoundaries) {
  Region region(8 << 20);
  std::vector<uint8_t> data(4 << 20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  // Unaligned at both ends, straddles the 2MB page-directory boundary, and
  // backs more pages than one 2MB host block holds.
  uint64_t offset = (2 << 20) - 777;
  region.Write(offset, data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  region.Read(offset, out.data(), out.size());
  EXPECT_EQ(out, data);
  uint64_t first_page = offset / 4096;
  uint64_t last_page = (offset + data.size() - 1) / 4096;
  EXPECT_EQ(region.bytes_backed(), (last_page - first_page + 1) * 4096);
}

TEST(Region, RecycledPagesReadZero) {
  constexpr uint64_t kPages = 600;  // More than one 2MB host block.
  {
    Region dirty(8 << 20);
    std::vector<uint8_t> junk(kPages * 4096, 0xEE);
    dirty.Write(0, junk.data(), junk.size());
  }
  // The pooled blocks come back dirty; every page must still read zero
  // around the one byte written into it.
  Region region(8 << 20);
  for (uint64_t page = 0; page < kPages; ++page) {
    uint8_t one = 1;
    region.Write(page * 4096 + page % 4096, &one, 1);
  }
  std::vector<uint8_t> out(kPages * 4096);
  region.Read(0, out.data(), out.size());
  for (uint64_t i = 0; i < out.size(); ++i) {
    uint64_t page = i / 4096;
    ASSERT_EQ(out[i], i == page * 4096 + page % 4096 ? 1 : 0) << "byte " << i;
  }
}

TEST(Region, FirstWriteIntoALineZeroesOnlyWhatItLeavesUncovered) {
  {
    Region dirty(1 << 20);
    std::vector<uint8_t> junk(4 * 4096, 0xEE);
    dirty.Write(0, junk.data(), junk.size());
  }
  Region region(1 << 20);  // Its pages come from the dirty pooled block.
  std::vector<uint8_t> expect(2 * 4096, 0);
  auto write = [&](uint64_t offset, uint64_t n, uint8_t value) {
    std::vector<uint8_t> data(n, value);
    region.Write(offset, data.data(), n);
    std::memset(expect.data() + offset, value, n);
  };
  write(10, 1, 0xA1);     // Line 0.
  write(60, 20, 0xB2);    // Ends line 0 (already written: byte 10 stays), starts line 1.
  write(200, 1, 0xC3);    // Line 3; line 2 stays unwritten between.
  write(4066, 60, 0xD4);  // Last line of page 0 and first line of page 1.
  std::vector<uint8_t> out(expect.size(), 0xFF);
  region.Read(0, out.data(), out.size());
  EXPECT_EQ(out, expect);
  uint8_t pair[2] = {9, 9};
  region.Read(127, pair, sizeof(pair));  // Written line 1 into unwritten line 2.
  EXPECT_EQ(pair[0], 0);
  EXPECT_EQ(pair[1], 0);
  // Page 0 has 4 written lines (a 4-line slot block), page 1 has 1.
  EXPECT_EQ(region.bytes_backed(), 4u * 64 + 64);
}

TEST(Region, WriteAcrossPagesTouchedOutOfOrder) {
  // Pages 3 then 1 get one line each first. The big write then promotes
  // page 1 and backs page 2 as full pages, adjacent in host memory, while
  // page 3 moves to a slot block: the copy must split its run there.
  Region region(1 << 20);
  uint8_t marker3 = 0x33;
  uint8_t marker1 = 0x11;
  region.Write(3 * 4096 + 4000, &marker3, 1);
  region.Write(1 * 4096 + 5, &marker1, 1);
  std::vector<uint8_t> data(2 * 4096 + 200);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  uint64_t offset = 1 * 4096 + 100;  // Pages 1..3.
  region.Write(offset, data.data(), data.size());

  std::vector<uint8_t> expect(5 * 4096, 0);
  expect[1 * 4096 + 5] = marker1;
  expect[3 * 4096 + 4000] = marker3;
  std::memcpy(expect.data() + offset, data.data(), data.size());
  std::vector<uint8_t> out(expect.size());
  region.Read(0, out.data(), out.size());  // Pages 0 and 4 are unbacked.
  EXPECT_EQ(out, expect);
  // Pages 1 and 2 are full; page 3 has 6 written lines (an 8-line block).
  EXPECT_EQ(region.bytes_backed(), 2u * 4096 + 8 * 64);
}

TEST(Region, CrashRollsBackWriteIntoFreshPages) {
  Region region(1 << 20);
  uint8_t durable = 0x7D;
  region.Write(0, &durable, 1);
  region.Persist(0, 1);
  std::vector<uint8_t> data(3 * 4096, 0xC4);
  region.Write(5 * 4096 + 10, data.data(), data.size());  // Backs pages 5..8.
  // Pages 5..7 are full; pages 0 and 8 hold one line each.
  EXPECT_EQ(region.bytes_backed(), 3u * 4096 + 2 * 64);
  region.Crash();
  std::vector<uint8_t> out(data.size(), 0xFF);
  region.Read(5 * 4096 + 10, out.data(), out.size());
  EXPECT_EQ(out, std::vector<uint8_t>(data.size(), 0));
  uint8_t kept = 0;
  region.Read(0, &kept, 1);
  EXPECT_EQ(kept, durable);
}

TEST(Region, ReadsOfUntouchedRangesBackNothing) {
  Region region(8 << 20);
  EXPECT_EQ(region.bytes_backed(), 0u);
  uint8_t one = 1;
  region.Write(4096 + 7, &one, 1);
  EXPECT_EQ(region.bytes_backed(), 64u);  // One line in a 1-line slot block.
  std::vector<uint8_t> out(8 << 20);
  region.Read(0, out.data(), out.size());  // Whole region, mostly unbacked.
  uint8_t pair[2] = {9, 9};
  region.Read((4 << 20) - 1, pair, sizeof(pair));  // Across a directory edge.
  EXPECT_EQ(region.bytes_backed(), 64u);
  EXPECT_EQ(out[4096 + 7], 1);
  EXPECT_EQ(pair[0], 0);
  EXPECT_EQ(pair[1], 0);
}

// Leaves dirty blocks in the process-wide pool, so the next Region's pages
// and slot blocks start out holding stale bytes.
void DirtyThePool() {
  Region dirty(8 << 20);
  std::vector<uint8_t> junk(4 << 20, 0xEE);
  dirty.Write(0, junk.data(), junk.size());
  // Slot blocks too: one line in each of many pages.
  for (uint64_t page = 1024; page < 2048; ++page) {
    dirty.Write(page * 4096 + 64 * (page % 64), junk.data(), 64);
  }
}

// A Region plus a flat copy of what it should read as.
struct Shadowed {
  explicit Shadowed(uint64_t size) : region(size), shadow(size, 0) {}

  void Write(uint64_t offset, uint64_t n, uint8_t seed) {
    std::vector<uint8_t> data(n);
    for (uint64_t i = 0; i < n; ++i) {
      data[i] = static_cast<uint8_t>(seed + i * 13);
    }
    region.Write(offset, data.data(), n);
    std::memcpy(shadow.data() + offset, data.data(), n);
  }

  // Fills one whole 64-byte line.
  void WriteLine(uint64_t page, uint64_t line, uint8_t seed) {
    Write(page * 4096 + line * 64, 64, seed);
  }

  ::testing::AssertionResult Matches() const {
    std::vector<uint8_t> out(shadow.size(), 0xFF);
    region.Read(0, out.data(), out.size());
    for (uint64_t i = 0; i < out.size(); ++i) {
      if (out[i] != shadow[i]) {
        return ::testing::AssertionFailure() << "byte " << i << " reads " << int{out[i]}
                                             << ", want " << int{shadow[i]};
      }
    }
    return ::testing::AssertionSuccess();
  }

  Region region;
  std::vector<uint8_t> shadow;
};

TEST(RegionSlots, PageGrowsThroughSizeClassesThenPromotes) {
  DirtyThePool();
  Shadowed s(64 << 10);
  // Line counts 1, 2, 3, 5 and 9: blocks of 1, 2, 4 and 8 lines, then a
  // full page. Lines land out of order, and partial writes leave bytes the
  // first write into a line must zero.
  s.Write(4096 + 40 * 64 + 5, 7, 1);  // Line 40.
  EXPECT_TRUE(s.Matches());
  EXPECT_EQ(s.region.bytes_backed(), 64u);
  s.WriteLine(1, 2, 2);
  EXPECT_TRUE(s.Matches());
  EXPECT_EQ(s.region.bytes_backed(), 128u);
  s.Write(4096 + 63 * 64 + 60, 4, 3);  // Line 63, its last bytes.
  EXPECT_TRUE(s.Matches());
  EXPECT_EQ(s.region.bytes_backed(), 256u);
  s.Write(4096 + 10 * 64 + 30, 64, 4);  // Lines 10 and 11.
  EXPECT_TRUE(s.Matches());
  EXPECT_EQ(s.region.bytes_backed(), 512u);
  s.Write(4096 + 20 * 64 + 1, 3 * 64, 5);  // Lines 20..23.
  EXPECT_TRUE(s.Matches());
  EXPECT_EQ(s.region.bytes_backed(), 4096u);
  s.WriteLine(1, 0, 6);  // Into the full page.
  EXPECT_TRUE(s.Matches());
  EXPECT_EQ(s.region.bytes_backed(), 4096u);
}

TEST(RegionSlots, DescendingLinesShiftTheBlock) {
  DirtyThePool();
  Shadowed s(16 << 10);
  // Every new line sorts first, so every line already in the block moves
  // up one slot: in place while the block has room, else into a new one.
  for (uint64_t line = 64; line-- > 50;) {
    s.WriteLine(2, line, static_cast<uint8_t>(line));
    ASSERT_TRUE(s.Matches()) << "after line " << line;
  }
  EXPECT_EQ(s.region.bytes_backed(), 4096u);
}

TEST(RegionSlots, SlotBlocksFreedByGrowthAreReusedClean) {
  Shadowed s(1 << 20);
  for (uint64_t line = 0; line < 9; ++line) {
    s.WriteLine(0, line, 1);  // Frees a block of each class, then promotes.
  }
  EXPECT_EQ(s.region.bytes_backed(), 4096u);
  // The freed blocks still hold page 0's lines; partial writes into them
  // must read back zero around the written bytes.
  for (uint64_t page = 1; page <= 4; ++page) {
    for (uint64_t line = 0; line < 8; ++line) {
      s.Write(page * 4096 + (63 - line * 3) * 64 + 7, 20, static_cast<uint8_t>(page * 8 + line));
    }
  }
  EXPECT_TRUE(s.Matches());
  EXPECT_EQ(s.region.bytes_backed(), 4096u + 4 * 512);
}

TEST(RegionSlots, CrashAfterGrowthAndPromotionRestoresDurableImage) {
  DirtyThePool();
  Shadowed s(64 << 10);
  s.WriteLine(1, 5, 1);
  s.Write(4096 + 30 * 64 + 9, 20, 2);
  s.region.PersistAll();
  std::vector<uint8_t> durable = s.shadow;

  s.WriteLine(1, 0, 3);  // 3 lines: the page moves to a 4-line block.
  s.Write(4096 + 30 * 64, 64, 4);  // Over the durable partial line.
  EXPECT_TRUE(s.Matches());
  s.region.Crash();
  s.shadow = durable;
  EXPECT_TRUE(s.Matches());

  s.Write(4096 + 60, 40 * 64, 5);  // Promotes the page to a full one.
  EXPECT_EQ(s.region.bytes_backed(), 4096u);
  EXPECT_TRUE(s.Matches());
  s.region.Crash();
  s.shadow = durable;
  EXPECT_TRUE(s.Matches());
}

TEST(RegionSlots, OneReadSpansSlotFullAndUnbackedPages) {
  DirtyThePool();
  Shadowed s(64 << 10);
  s.WriteLine(3, 62, 1);  // Slot page.
  s.WriteLine(3, 63, 2);
  s.Write(4 * 4096, 4096, 3);  // Full page; page 5 stays unbacked.
  s.WriteLine(6, 0, 4);   // Slot page.
  std::vector<uint8_t> out(4 * 4096 + 200, 0xFF);
  uint64_t from = 3 * 4096 + 62 * 64 + 10;
  s.region.Read(from, out.data(), out.size());
  EXPECT_EQ(0, std::memcmp(out.data(), s.shadow.data() + from, out.size()));
}

TEST(RegionSlots, RandomOpsMatchAFlatShadow) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    DirtyThePool();
    constexpr uint64_t kSize = 256 << 10;  // 64 pages: ops overlap a lot.
    Shadowed s(kSize);
    // The durable image: each write's old bytes until persisted.
    struct Undo {
      uint64_t offset;
      std::vector<uint8_t> old;
      bool live;
    };
    std::vector<Undo> undo;
    std::mt19937_64 rng(seed);
    auto pick = [&](uint64_t bound) { return rng() % bound; };
    for (int op = 0; op < 4000; ++op) {
      uint64_t kind = pick(100);
      // Mostly line-sized writes so pages dwell in slot blocks.
      uint64_t n = kind < 70 ? 1 + pick(130) : 1 + pick(kind < 95 ? 1000 : 9000);
      uint64_t offset = pick(kSize - n + 1);
      if (kind < 80) {
        undo.push_back({offset, std::vector<uint8_t>(s.shadow.begin() + offset,
                                                     s.shadow.begin() + offset + n),
                        true});
        s.Write(offset, n, static_cast<uint8_t>(op));
      } else if (kind < 90) {
        s.region.Persist(offset, n);
        for (Undo& u : undo) {
          u.live = u.live && !(u.offset >= offset && u.offset + u.old.size() <= offset + n);
        }
      } else if (kind < 92) {
        s.region.Crash();
        for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
          if (it->live) {
            std::memcpy(s.shadow.data() + it->offset, it->old.data(), it->old.size());
          }
        }
        undo.clear();
        ASSERT_TRUE(s.Matches()) << "seed " << seed << " op " << op;
      } else {
        std::vector<uint8_t> out(n, 0xFF);
        s.region.Read(offset, out.data(), n);
        ASSERT_EQ(0, std::memcmp(out.data(), s.shadow.data() + offset, n))
            << "seed " << seed << " op " << op;
      }
    }
    ASSERT_TRUE(s.Matches()) << "seed " << seed;
  }
}

TEST(RegionSlots, OneHeaderPerSixteenKilobytesBacksAtMostTwoLines) {
  constexpr uint64_t kSpan = 64 << 20;
  constexpr uint64_t kStride = 16 << 10;
  Region region(kSpan);
  uint8_t header[64];
  std::memset(header, 0x5C, sizeof(header));
  for (uint64_t off = 0; off < kSpan; off += kStride) {
    // Aligned and unaligned headers: one line or two.
    region.Write(off + (off / kStride % 2) * 32, header, sizeof(header));
  }
  EXPECT_LE(region.bytes_backed(), 128 * (kSpan / kStride));
  uint8_t out[96];
  region.Read(kStride, out, sizeof(out));  // An unaligned header.
  for (uint64_t i = 0; i < sizeof(out); ++i) {
    EXPECT_EQ(out[i], i >= 32 ? 0x5C : 0) << "byte " << i;
  }
}

TEST(RegionDeathTest, OutOfRangeAccessAborts) {
  Region region(1 << 20);
  uint8_t buf[16] = {};
  EXPECT_DEATH(region.Write((1 << 20) - 8, buf, 16),
               "Write out of range: offset 1048568 len 16 region size 1048576");
  EXPECT_DEATH(region.Read(1 << 20, buf, 1), "Read out of range: offset 1048576 len 1");
  EXPECT_DEATH(region.CopyDurable(0, (1 << 20) - 1, 2), "Copy out of range: offset 1048575 len 2");
  EXPECT_DEATH(region.Write(8, buf, UINT64_MAX - 4), "Write out of range");
}

TEST(RegionDeathTest, OverlappingCopyAborts) {
  Region region(1 << 20);
  EXPECT_DEATH(region.CopyDurable(100, 0, 200), "check failed");
}

TEST(RegionDeathTest, WriteTooLargeToUndoAborts) {
  Region region(6ULL << 30);
  uint8_t byte = 0;
  // Aborts on the length alone, before reading the source.
  EXPECT_DEATH(region.Write(0, &byte, 4ULL << 30),
               "too large to undo: offset 0 len 4294967296 region size 6442450944");
}

TEST(Region, CrashRollsBackUnpersistedWrites) {
  Region region(1 << 20);
  uint32_t committed = 0xAAAAAAAA;
  region.Write(0, &committed, sizeof(committed));
  region.Persist(0, sizeof(committed));

  uint32_t uncommitted = 0xBBBBBBBB;
  region.Write(0, &uncommitted, sizeof(uncommitted));
  EXPECT_GT(region.unpersisted_bytes(), 0u);

  region.Crash();
  uint32_t out = 0;
  region.Read(0, &out, sizeof(out));
  EXPECT_EQ(out, committed);
  EXPECT_EQ(region.unpersisted_bytes(), 0u);
}

TEST(Region, CrashRollsBackNewestFirst) {
  Region region(1 << 20);
  uint8_t v1 = 1;
  region.Write(10, &v1, 1);
  region.Persist(10, 1);
  uint8_t v2 = 2;
  region.Write(10, &v2, 1);
  uint8_t v3 = 3;
  region.Write(10, &v3, 1);
  region.Crash();
  uint8_t out = 0;
  region.Read(10, &out, 1);
  EXPECT_EQ(out, 1);
}

TEST(Region, PersistAllDrainsEverything) {
  Region region(1 << 20);
  std::vector<uint8_t> data(1024, 0x42);
  region.Write(0, data.data(), data.size());
  region.Write(8192, data.data(), data.size());
  region.PersistAll();
  EXPECT_EQ(region.unpersisted_bytes(), 0u);
  region.Crash();  // No-op now.
  uint8_t out = 0;
  region.Read(0, &out, 1);
  EXPECT_EQ(out, 0x42);
}

TEST(Region, PartialPersistKeepsOtherWritesVolatile) {
  Region region(1 << 20);
  uint8_t a = 1;
  uint8_t b = 2;
  region.Write(0, &a, 1);
  region.Write(100, &b, 1);
  region.Persist(0, 1);
  region.Crash();
  uint8_t out_a = 9;
  uint8_t out_b = 9;
  region.Read(0, &out_a, 1);
  region.Read(100, &out_b, 1);
  EXPECT_EQ(out_a, 1);
  EXPECT_EQ(out_b, 0);
}

TEST(Region, CrashRestoresDurableImageAcrossDrainedUndoLogs) {
  // Persisted writes drain the undo log between them; one write in the middle
  // stays volatile while later writes are persisted around it.
  Region region(1 << 20);
  std::vector<uint8_t> durable(8192, 0);
  const uint64_t kVolatileOff = 16384;
  std::vector<uint8_t> before(100, 0xA5);
  region.Write(kVolatileOff, before.data(), before.size());
  region.Persist(kVolatileOff, before.size());
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> data(100 + i * 13, static_cast<uint8_t>(i + 1));
    uint64_t off = (static_cast<uint64_t>(i) * 977) % (durable.size() - data.size());
    region.Write(off, data.data(), data.size());
    region.Persist(off, data.size());
    std::memcpy(durable.data() + off, data.data(), data.size());
    if (i == 20) {
      std::vector<uint8_t> lost(100, 0x5A);
      region.Write(kVolatileOff, lost.data(), lost.size());
    }
  }
  EXPECT_EQ(region.pending_undo_count(), 1u);
  EXPECT_EQ(region.unpersisted_bytes(), 100u);

  region.Crash();
  std::vector<uint8_t> out(durable.size());
  region.Read(0, out.data(), out.size());
  EXPECT_EQ(out, durable);
  std::vector<uint8_t> volatile_out(before.size());
  region.Read(kVolatileOff, volatile_out.data(), volatile_out.size());
  EXPECT_EQ(volatile_out, before);
  EXPECT_EQ(region.pending_undo_count(), 0u);
}

TEST(Region, CopyMovesData) {
  Region region(1 << 20);
  const char msg[] = "dma copy list";
  region.Write(0, msg, sizeof(msg));
  region.CopyDurable(5000, 0, sizeof(msg));
  char out[sizeof(msg)] = {};
  region.Read(5000, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
}

TEST(Region, DurableStoresEqualWriteThenPersist) {
  // One seeded mix of stores, persists, armed persist failures and crashes,
  // applied to two regions: `plain` stores with Write (or a staged buffer
  // for fills and copies) followed by Persist of the same range, `durable`
  // with the durable stores. The two must be indistinguishable after every
  // step, including the backing footprint.
  constexpr uint64_t kSize = 64 << 10;  // 16 pages: slot-packed and full.
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto uniform = [&](uint64_t n) { return rng() % n; };
    Region plain(kSize);
    Region durable(kSize);
    std::vector<uint8_t> data;
    std::vector<uint8_t> want(kSize);
    std::vector<uint8_t> got(kSize);
    for (int step = 0; step < 3000; ++step) {
      // Mostly small stores (a log header is one line), some spanning pages.
      uint64_t n = 1 + (uniform(4) == 0 ? uniform(3 * 4096) : uniform(200));
      uint64_t off = uniform(kSize - n + 1);
      int op = static_cast<int>(uniform(16));
      if (op < 5) {
        data.resize(n);
        for (uint8_t& b : data) {
          b = static_cast<uint8_t>(rng());
        }
        plain.Write(off, data.data(), n);
        plain.Persist(off, n);
        durable.WriteDurable(off, data.data(), n);
      } else if (op < 6) {
        auto value = static_cast<uint8_t>(rng());
        data.assign(n, value);
        plain.Write(off, data.data(), n);
        plain.Persist(off, n);
        durable.FillDurable(off, value, n);
      } else if (op < 8) {
        uint64_t src = uniform(kSize - n + 1);
        if (src < off + n && off < src + n) {
          continue;  // Copies between overlapping ranges abort.
        }
        data.resize(n);
        plain.Read(src, data.data(), n);
        plain.Write(off, data.data(), n);
        plain.Persist(off, n);
        durable.CopyDurable(off, src, n);
      } else if (op < 11) {
        // A volatile store on both, for the durable stores and persists to
        // leave live or kill.
        data.assign(n, static_cast<uint8_t>(rng()));
        plain.Write(off, data.data(), n);
        durable.Write(off, data.data(), n);
      } else if (op < 13) {
        plain.Persist(off, n);
        durable.Persist(off, n);
      } else if (op < 14) {
        uint64_t persists = uniform(6);
        plain.FailAfterPersists(persists);
        durable.FailAfterPersists(persists);
      } else if (op < 15) {
        plain.Crash();
        durable.Crash();
      } else {
        plain.PersistAll();
        durable.PersistAll();
      }
      plain.Read(0, want.data(), kSize);
      durable.Read(0, got.data(), kSize);
      ASSERT_EQ(got, want) << "step " << step << " op " << op;
      ASSERT_EQ(durable.unpersisted_bytes(), plain.unpersisted_bytes()) << "step " << step;
      ASSERT_EQ(durable.pending_undo_count(), plain.pending_undo_count()) << "step " << step;
      ASSERT_EQ(durable.bytes_backed(), plain.bytes_backed()) << "step " << step;
      ASSERT_EQ(durable.total_bytes_written(), plain.total_bytes_written()) << "step " << step;
    }
    // The durable stores captured old bytes only while a failure was armed.
    EXPECT_LT(durable.undo_bytes_captured(), plain.undo_bytes_captured());
  }
}

TEST(Region, DurableStoreCapturesNothingUnlessAFailureIsArmed) {
  Region region(1 << 20);
  std::vector<uint8_t> data(5000, 0x3C);
  region.WriteDurable(100, data.data(), data.size());
  region.FillDurable(8192, 0x11, 300);
  region.CopyDurable(20000, 100, 5000);
  EXPECT_EQ(region.undo_bytes_captured(), 0u);
  EXPECT_EQ(region.pending_undo_count(), 0u);

  // Armed: the second persist does not take effect, so the second store
  // must be rolled back by the crash.
  region.FailAfterPersists(1);
  std::vector<uint8_t> first(64, 0xA1);
  std::vector<uint8_t> second(64, 0xB2);
  region.WriteDurable(40000, first.data(), first.size());
  region.WriteDurable(50000, second.data(), second.size());
  EXPECT_EQ(region.undo_bytes_captured(), 128u);
  region.Crash();
  std::vector<uint8_t> out(64);
  region.Read(40000, out.data(), out.size());
  EXPECT_EQ(out, first);
  region.Read(50000, out.data(), out.size());
  EXPECT_EQ(out, std::vector<uint8_t>(64, 0));
}

// A buffer the test shares with a region, and the CRC of its bytes when the
// test made or received it.
struct Source {
  SharedBytes bytes;
  uint32_t crc = 0;
};

Source MakeSource(SharedBytes bytes) {
  uint32_t crc = fslib::Crc32c(bytes.data(), bytes.size());
  return Source{std::move(bytes), crc};
}

TEST(Region, BorrowedPagesMatchACopyOnlyShadow) {
  // One seeded mix of by-reference stores, shares, copies from borrowed and
  // from own pages, plain and volatile stores, persists, armed persist
  // failures and crashes. `shadow` only ever copies: it stores every buffer
  // by pointer and reads where `region` shares. The two must hold the same
  // bytes after every step, no buffer's bytes may change, and once `region`
  // is gone only the test may hold the buffers.
  constexpr uint64_t kSize = 128 << 10;  // 32 pages.
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto uniform = [&](uint64_t n) { return rng() % n; };
    std::vector<Source> sources;
    uint64_t borrowed_copies = 0;
    uint64_t reshared = 0;
    uint64_t max_pinned = 0;
    bool armed = false;
    {
      Region shadow(kSize);
      Region region(kSize);
      std::vector<uint8_t> data;
      std::vector<uint8_t> want(kSize);
      std::vector<uint8_t> got(kSize);
      for (int step = 0; step < 3000; ++step) {
        // Ranges of whole pages, often page-aligned, so that pages borrow;
        // ranges of any size and place, so that edges copy; and a few lines,
        // so that slot-packed pages come to borrow too.
        uint64_t kind = uniform(3);
        uint64_t n = kind == 0   ? 4096 * (1 + uniform(6))
                     : kind == 1 ? 1 + uniform(3 * 4096)
                                 : 1 + uniform(200);
        uint64_t off = uniform(kSize - n + 1);
        if (uniform(2) == 0) {
          off &= ~uint64_t{4095};
        }
        int op = static_cast<int>(uniform(20));
        if (op < 4) {
          // By reference, sometimes from the middle of a larger buffer.
          uint64_t lead = uniform(3) == 0 ? uniform(5000) : 0;
          SharedBytes buffer = SharedBytes::Filled(lead + n, [&](uint8_t* bytes) {
            for (uint64_t i = 0; i < lead + n; ++i) {
              bytes[i] = static_cast<uint8_t>(rng());
            }
          });
          sources.push_back(MakeSource(buffer.Slice(lead, n)));
          const SharedBytes& bytes = sources.back().bytes;
          region.WriteDurable(off, bytes);
          shadow.WriteDurable(off, bytes.data(), n);
          // Sharing the range back finds the buffer, edge pages copied or not.
          bool whole_page = (off + 4095) / 4096 < (off + n) / 4096;
          if (!armed && whole_page && uniform(2) == 0) {
            SharedBytes again = region.Share(off, n);
            ASSERT_EQ(again.buffer_id(), bytes.buffer_id()) << "step " << step;
            ASSERT_EQ(again.data(), bytes.data()) << "step " << step;
            ++reshared;
          }
        } else if (op < 6) {
          SharedBytes bytes = region.Share(off, n);
          data.resize(n);
          shadow.Read(off, data.data(), n);
          ASSERT_TRUE(bytes == data) << "step " << step;
          if (uniform(2) == 0) {
            sources.push_back(MakeSource(std::move(bytes)));
          }
        } else if (op < 10) {
          uint64_t src = uniform(kSize - n + 1);
          if (off % 4096 == 0) {
            src &= ~uint64_t{4095};  // Page to page: the case that may borrow.
          }
          if (src < off + n && off < src + n) {
            continue;  // Copies between overlapping ranges abort.
          }
          uint64_t before = region.own_bytes_backed();
          region.CopyDurable(off, src, n);
          shadow.CopyDurable(off, src, n);
          borrowed_copies += region.own_bytes_backed() < before ? 1 : 0;
        } else if (op < 12) {
          data.resize(n);
          for (uint8_t& b : data) {
            b = static_cast<uint8_t>(rng());
          }
          region.WriteDurable(off, data.data(), n);
          shadow.WriteDurable(off, data.data(), n);
        } else if (op < 14) {
          data.assign(n, static_cast<uint8_t>(rng()));
          region.Write(off, data.data(), n);
          shadow.Write(off, data.data(), n);
        } else if (op < 16) {
          region.Persist(off, n);
          shadow.Persist(off, n);
        } else if (op < 17) {
          uint64_t persists = uniform(6);
          region.FailAfterPersists(persists);
          shadow.FailAfterPersists(persists);
          armed = true;
        } else if (op < 18) {
          region.Crash();
          shadow.Crash();
          armed = false;
        } else if (op < 19) {
          region.PersistAll();
          shadow.PersistAll();
        } else if (!sources.empty()) {
          // The test lets go of a buffer: pages still borrowing it keep it.
          size_t victim = uniform(sources.size());
          ASSERT_EQ(fslib::Crc32c(sources[victim].bytes.data(), sources[victim].bytes.size()),
                    sources[victim].crc);
          sources.erase(sources.begin() + static_cast<ptrdiff_t>(victim));
        }
        shadow.Read(0, want.data(), kSize);
        region.Read(0, got.data(), kSize);
        ASSERT_EQ(got, want) << "step " << step << " op " << op;
        ASSERT_EQ(region.unpersisted_bytes(), shadow.unpersisted_bytes()) << "step " << step;
        ASSERT_EQ(region.pending_undo_count(), shadow.pending_undo_count()) << "step " << step;
        uint64_t pinned = 0;
        for (const SharedBytes& buffer : region.pinned_buffers()) {
          pinned += buffer.buffer_bytes();
        }
        ASSERT_EQ(region.bytes_backed(), region.own_bytes_backed() + pinned) << "step " << step;
        max_pinned = std::max<uint64_t>(max_pinned, region.pinned_buffers().size());
      }
    }
    // Every kind of borrowing happened.
    EXPECT_GT(borrowed_copies, 0u);
    EXPECT_GT(reshared, 0u);
    EXPECT_GT(max_pinned, 1u);
    std::map<const void*, long> refs;
    for (const Source& source : sources) {
      EXPECT_EQ(fslib::Crc32c(source.bytes.data(), source.bytes.size()), source.crc);
      ++refs[source.bytes.buffer_id()];
    }
    for (const Source& source : sources) {
      EXPECT_EQ(source.bytes.use_count(), refs[source.bytes.buffer_id()]);
    }
  }
}

TEST(Region, CrashUnwindsACompactedUndoLog) {
  // Enough volatile stores, most of them persisted again, that the undo log
  // passes 1,024 records with fewer than half live and Persist compacts it,
  // sliding the live records (and their saved bytes) down over the dead.
  // Every store has a range of its own, so the durable state is the initial
  // bytes with the persisted stores applied. Half the region borrows a
  // buffer, and a share halfway rebinds pages under live stores, so the
  // crash restores borrowed pages through copy-on-write.
  constexpr uint64_t kSize = 256 << 10;
  constexpr uint64_t kSlot = 128;
  std::mt19937_64 rng(7);
  std::vector<uint8_t> durable(kSize, 0);
  SharedBytes initial = SharedBytes::Filled(kSize / 2, [&](uint8_t* bytes) {
    for (uint64_t i = 0; i < kSize / 2; ++i) {
      bytes[i] = static_cast<uint8_t>(rng());
    }
  });
  std::memcpy(durable.data(), initial.data(), initial.size());
  Region region(kSize);
  region.WriteDurable(0, initial);
  ASSERT_EQ(region.own_bytes_backed(), 0u);

  std::vector<uint64_t> slots(kSize / kSlot);
  for (uint64_t i = 0; i < slots.size(); ++i) {
    slots[i] = i * kSlot;
  }
  std::shuffle(slots.begin(), slots.end(), rng);
  constexpr size_t kStores = 1500;
  size_t live = 0;
  std::vector<uint8_t> data;
  for (size_t i = 0; i < kStores; ++i) {
    uint64_t n = 1 + rng() % kSlot;
    uint64_t off = slots[i] + rng() % (kSlot - n + 1);
    data.resize(n);
    for (uint8_t& b : data) {
      b = static_cast<uint8_t>(rng());
    }
    region.Write(off, data.data(), n);
    if (rng() % 10 < 7) {
      region.Persist(off, n);
      std::memcpy(durable.data() + off, data.data(), n);
    } else {
      ++live;
    }
    if (i == kStores / 2) {
      SharedBytes image = region.Share(kSize / 4, kSize / 2);
      ASSERT_EQ(image.size(), kSize / 2);
    }
  }
  ASSERT_EQ(region.pending_undo_count(), live);
  ASSERT_GT(kStores, 1024u);
  ASSERT_LT(live * 2, kStores);
  region.Crash();
  std::vector<uint8_t> got(kSize);
  region.Read(0, got.data(), kSize);
  EXPECT_EQ(got, durable);
  EXPECT_EQ(region.pending_undo_count(), 0u);
}

TEST(Allocator, AllocatesDistinctBlocks) {
  BlockAllocator alloc(1000, 64);
  std::vector<uint64_t> blocks;
  for (int i = 0; i < 64; ++i) {
    Result<uint64_t> b = alloc.Alloc();
    ASSERT_TRUE(b.ok());
    EXPECT_GE(*b, 1000u);
    EXPECT_LT(*b, 1064u);
    for (uint64_t prev : blocks) {
      EXPECT_NE(*b, prev);
    }
    blocks.push_back(*b);
  }
  EXPECT_EQ(alloc.free_blocks(), 0u);
  EXPECT_FALSE(alloc.Alloc().ok());
}

TEST(Allocator, ContiguousRuns) {
  BlockAllocator alloc(0, 128);
  Result<uint64_t> run = alloc.Alloc(32);
  ASSERT_TRUE(run.ok());
  for (uint64_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(alloc.IsAllocated(*run + i));
  }
  EXPECT_EQ(alloc.free_blocks(), 96u);
}

TEST(Allocator, FreeAndReuse) {
  BlockAllocator alloc(0, 16);
  Result<uint64_t> a = alloc.Alloc(16);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(alloc.Alloc().ok());
  alloc.Free(*a + 4, 8);
  EXPECT_EQ(alloc.free_blocks(), 8u);
  Result<uint64_t> b = alloc.Alloc(8);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a + 4);
}

TEST(Allocator, WrapAroundSearch) {
  BlockAllocator alloc(0, 64);
  ASSERT_TRUE(alloc.Alloc(60).ok());   // hint near the end
  alloc.Free(0, 60);                   // free the front
  Result<uint64_t> b = alloc.Alloc(16);  // must wrap to find it
  ASSERT_TRUE(b.ok());
  EXPECT_LT(*b, 60u);
}

TEST(Allocator, AllocFromTopStaysOutOfDataRuns) {
  BlockAllocator alloc(100, 16);
  Result<uint64_t> a = alloc.Alloc(4);
  ASSERT_TRUE(a.ok());
  Result<uint64_t> meta = alloc.AllocFromTop();
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(*meta, 115u);
  Result<uint64_t> b = alloc.Alloc(4);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a + 4);  // The data run continues past the metadata block.
  EXPECT_EQ(*alloc.AllocFromTop(), 114u);
  alloc.Free(115);
  // A freed block above the downward cursor is handed out again first.
  EXPECT_EQ(*alloc.AllocFromTop(), 115u);
  for (uint64_t expect = 113; expect >= 108; --expect) {
    EXPECT_EQ(*alloc.AllocFromTop(), expect);
  }
  EXPECT_EQ(alloc.free_blocks(), 0u);
  EXPECT_FALSE(alloc.AllocFromTop().ok());
}

TEST(Allocator, MarkAllocatedForRecovery) {
  BlockAllocator alloc(100, 32);
  alloc.MarkAllocated(110, 4);
  EXPECT_EQ(alloc.free_blocks(), 28u);
  EXPECT_TRUE(alloc.IsAllocated(110));
  EXPECT_FALSE(alloc.IsAllocated(109));
}

}  // namespace
}  // namespace linefs::pmem
