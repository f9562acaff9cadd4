// Unit tests for the persistent-memory emulation: persist/crash semantics and
// the block allocator.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/pmem/alloc.h"
#include "src/pmem/region.h"

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
  EXPECT_EQ(region.bytes_backed(), 2u * 4096);
}

TEST(Region, WriteAcrossPagesTouchedOutOfOrder) {
  // Pages 3 then 1 are backed first, so in host memory 1 and 2 end up
  // adjacent but 3 does not follow 2: the copy must split its run there.
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
  EXPECT_EQ(region.bytes_backed(), 3u * 4096);
}

TEST(Region, CrashRollsBackWriteIntoFreshPages) {
  Region region(1 << 20);
  uint8_t durable = 0x7D;
  region.Write(0, &durable, 1);
  region.Persist(0, 1);
  std::vector<uint8_t> data(3 * 4096, 0xC4);
  region.Write(5 * 4096 + 10, data.data(), data.size());  // Backs pages 5..8.
  EXPECT_EQ(region.bytes_backed(), 5u * 4096);
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
  EXPECT_EQ(region.bytes_backed(), 4096u);
  std::vector<uint8_t> out(8 << 20);
  region.Read(0, out.data(), out.size());  // Whole region, mostly unbacked.
  uint8_t pair[2] = {9, 9};
  region.Read((4 << 20) - 1, pair, sizeof(pair));  // Across a directory edge.
  EXPECT_EQ(region.bytes_backed(), 4096u);
  EXPECT_EQ(out[4096 + 7], 1);
  EXPECT_EQ(pair[0], 0);
  EXPECT_EQ(pair[1], 0);
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
  region.Copy(5000, 0, sizeof(msg));
  char out[sizeof(msg)] = {};
  region.Read(5000, out, sizeof(msg));
  EXPECT_STREQ(out, msg);
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
  // The downward cursor wraps to the top once it runs into allocated blocks.
  for (uint64_t expect = 113; expect >= 108; --expect) {
    EXPECT_EQ(*alloc.AllocFromTop(), expect);
  }
  EXPECT_EQ(*alloc.AllocFromTop(), 115u);
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
