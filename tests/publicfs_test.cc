// Unit tests for the public-area file system: extents, directories,
// digestion (plan/copy/commit), coalescing, validation, and mounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/fslib/index.h"
#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/fslib/validate.h"
#include "src/pmem/region.h"

namespace linefs::fslib {
namespace {

LayoutConfig SmallConfig() {
  LayoutConfig config;
  config.inode_count = 4096;
  config.max_clients = 2;
  config.log_size = 4 << 20;
  return config;
}

class PublicFsTest : public ::testing::Test {
 protected:
  PublicFsTest()
      : region_(64 << 20), layout_(Layout::Compute(64 << 20, SmallConfig())),
        fs_(&region_, layout_), log_(&region_, layout_.LogOffset(0), layout_.log_size, 0) {
    fs_.Mkfs();
  }

  // Appends an entry and returns the parsed form (as the pipeline would see).
  ParsedEntry Append(LogEntryHeader h, const std::vector<uint8_t>& payload) {
    Result<uint64_t> pos = log_.Append(h, payload);
    EXPECT_TRUE(pos.ok());
    Result<std::vector<ParsedEntry>> entries = log_.ParseRange(*pos, log_.tail());
    EXPECT_TRUE(entries.ok());
    return entries->back();
  }

  ParsedEntry AppendCreate(InodeNum parent, const std::string& name, InodeNum inum,
                           FileType type = FileType::kRegular) {
    LogEntryHeader h;
    h.type = type == FileType::kDirectory ? LogOpType::kMkdir : LogOpType::kCreate;
    h.inum = inum;
    h.parent = parent;
    h.ftype = type;
    h.payload_len = static_cast<uint32_t>(name.size());
    return Append(h, std::vector<uint8_t>(name.begin(), name.end()));
  }

  ParsedEntry AppendData(InodeNum inum, uint64_t offset, const std::vector<uint8_t>& data) {
    LogEntryHeader h;
    h.type = LogOpType::kData;
    h.inum = inum;
    h.offset = offset;
    h.payload_len = static_cast<uint32_t>(data.size());
    return Append(h, data);
  }

  ParsedEntry AppendUnlink(InodeNum parent, const std::string& name, InodeNum inum) {
    LogEntryHeader h;
    h.type = LogOpType::kUnlink;
    h.inum = inum;
    h.parent = parent;
    h.payload_len = static_cast<uint32_t>(name.size());
    return Append(h, std::vector<uint8_t>(name.begin(), name.end()));
  }

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return v;
  }

  pmem::Region region_;
  Layout layout_;
  PublicFs fs_;
  LogArea log_;
};

TEST_F(PublicFsTest, MkfsCreatesRoot) {
  Result<FileAttr> attr = fs_.GetAttr(kRootInode);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDirectory);
}

TEST_F(PublicFsTest, PublishCreateAndData) {
  std::vector<ParsedEntry> entries;
  entries.push_back(AppendCreate(kRootInode, "file.txt", 100));
  std::vector<uint8_t> data = Pattern(10000, 1);
  entries.push_back(AppendData(100, 0, data));
  ASSERT_TRUE(fs_.Publish(entries, log_).ok());

  Result<InodeNum> found = fs_.LookupChild(kRootInode, "file.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 100u);
  Result<FileAttr> attr = fs_.GetAttr(100);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 10000u);

  std::vector<uint8_t> out(10000);
  Result<uint64_t> n = fs_.ReadData(100, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10000u);
  EXPECT_EQ(out, data);
}

TEST_F(PublicFsTest, UnalignedOverwritePreservesSurroundingBytes) {
  std::vector<ParsedEntry> batch1;
  batch1.push_back(AppendCreate(kRootInode, "f", 100));
  std::vector<uint8_t> base = Pattern(3 * kBlockSize, 9);
  batch1.push_back(AppendData(100, 0, base));
  ASSERT_TRUE(fs_.Publish(batch1, log_).ok());

  // Overwrite bytes [5000, 5000+3000) — straddles block 1, unaligned both ends.
  std::vector<uint8_t> patch = Pattern(3000, 77);
  std::vector<ParsedEntry> batch2;
  batch2.push_back(AppendData(100, 5000, patch));
  ASSERT_TRUE(fs_.Publish(batch2, log_).ok());

  std::vector<uint8_t> expected = base;
  std::memcpy(expected.data() + 5000, patch.data(), patch.size());
  std::vector<uint8_t> out(expected.size());
  Result<uint64_t> n = fs_.ReadData(100, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, expected.size());
  EXPECT_EQ(out, expected);
}

TEST_F(PublicFsTest, SparseFileReadsZeroInHoles) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "sparse", 101));
  std::vector<uint8_t> data = Pattern(100, 5);
  batch.push_back(AppendData(101, 1 << 20, data));  // Write at 1MB.
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());

  std::vector<uint8_t> out(200);
  Result<uint64_t> n = fs_.ReadData(101, 4096, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 200u);
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(PublicFsTest, UnlinkFreesBlocks) {
  uint64_t free_before = fs_.allocator().free_blocks();
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "doomed", 102));
  batch.push_back(AppendData(102, 0, Pattern(64 << 10, 3)));
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());
  EXPECT_LT(fs_.allocator().free_blocks(), free_before);

  std::vector<ParsedEntry> batch2;
  batch2.push_back(AppendUnlink(kRootInode, "doomed", 102));
  ASSERT_TRUE(fs_.Publish(batch2, log_).ok());
  // Root's dirent block and its extent-chain block stay allocated; the file's
  // data blocks and extent chain return.
  EXPECT_EQ(fs_.allocator().free_blocks(), free_before - 2);
  EXPECT_FALSE(fs_.GetAttr(102).ok());
  EXPECT_FALSE(fs_.LookupChild(kRootInode, "doomed").ok());
}

TEST_F(PublicFsTest, RenameMovesAndReplaces) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "dir", 110, FileType::kDirectory));
  batch.push_back(AppendCreate(kRootInode, "a", 111));
  batch.push_back(AppendData(111, 0, Pattern(100, 1)));
  batch.push_back(AppendCreate(110, "b", 112));
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());

  // rename("/a", "/dir/b") — replaces existing b.
  LogEntryHeader h;
  h.type = LogOpType::kRename;
  h.inum = 111;
  h.parent = kRootInode;
  h.offset = 110;  // dst parent
  std::string payload("a");
  payload.push_back('\0');
  payload += "b";
  h.payload_len = static_cast<uint32_t>(payload.size());
  std::vector<ParsedEntry> batch2;
  batch2.push_back(Append(h, std::vector<uint8_t>(payload.begin(), payload.end())));
  ASSERT_TRUE(fs_.Publish(batch2, log_).ok());

  EXPECT_FALSE(fs_.LookupChild(kRootInode, "a").ok());
  Result<InodeNum> moved = fs_.LookupChild(110, "b");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 111u);
  EXPECT_FALSE(fs_.GetAttr(112).ok());  // Replaced target is gone.
}

TEST_F(PublicFsTest, TruncateShrinksAndFrees) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "t", 120));
  batch.push_back(AppendData(120, 0, Pattern(8 * kBlockSize, 2)));
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());
  uint64_t free_mid = fs_.allocator().free_blocks();

  LogEntryHeader h;
  h.type = LogOpType::kTruncate;
  h.inum = 120;
  h.offset = 2 * kBlockSize + 100;
  std::vector<ParsedEntry> batch2;
  batch2.push_back(Append(h, {}));
  ASSERT_TRUE(fs_.Publish(batch2, log_).ok());

  Result<FileAttr> attr = fs_.GetAttr(120);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 2 * kBlockSize + 100);
  EXPECT_GT(fs_.allocator().free_blocks(), free_mid);
}

TEST_F(PublicFsTest, MountRebuildsAllocator) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "m", 130));
  batch.push_back(AppendData(130, 0, Pattern(128 << 10, 4)));
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());
  uint64_t free_before = fs_.allocator().free_blocks();
  std::vector<uint8_t> content(128 << 10);
  ASSERT_TRUE(fs_.ReadData(130, 0, content).ok());

  // Remount a fresh PublicFs over the same region.
  PublicFs remounted(&region_, layout_);
  ASSERT_TRUE(remounted.Mount().ok());
  EXPECT_EQ(remounted.allocator().free_blocks(), free_before);
  std::vector<uint8_t> out(128 << 10);
  Result<uint64_t> n = remounted.ReadData(130, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, content);
}

TEST_F(PublicFsTest, SequentialAppendsKeepOneExtentAndConstantMetadata) {
  // fsync-per-write publication: 2,000 block-aligned appends, one batch each.
  // Each publish must touch O(1) metadata, and the data blocks (allocated
  // back to back) must coalesce into a single extent.
  // Payload bytes elided: publication moves no data.
  PublicFs elided(&region_, layout_, /*materialize=*/false);
  elided.Mkfs();
  std::vector<ParsedEntry> create;
  create.push_back(AppendCreate(kRootInode, "seq", 210));
  ASSERT_TRUE(elided.Publish(create, log_).ok());
  log_.Reclaim(log_.tail());

  constexpr int kAppends = 2000;
  std::vector<uint8_t> block = Pattern(kBlockSize, 4);
  uint64_t max_publish_bytes = 0;
  for (int i = 0; i < kAppends; ++i) {
    std::vector<ParsedEntry> batch;
    batch.push_back(AppendData(210, static_cast<uint64_t>(i) * kBlockSize, block));
    uint64_t before = region_.total_bytes_written();
    ASSERT_TRUE(elided.Publish(batch, log_).ok());
    max_publish_bytes = std::max(max_publish_bytes, region_.total_bytes_written() - before);
    log_.Reclaim(log_.tail());
  }
  EXPECT_LT(max_publish_bytes, 1024u);

  Result<Inode> inode = elided.inodes().Get(210);
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->size, kAppends * kBlockSize);
  std::vector<Extent> extents = elided.extents().Load(*inode);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].lblock, 0u);
  EXPECT_EQ(extents[0].count, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(elided.extents().ChainBlocks(*inode).size(), 1u);

  PublicFs remounted(&region_, layout_);
  ASSERT_TRUE(remounted.Mount().ok());
  const pmem::BlockAllocator& live = elided.allocator();
  const pmem::BlockAllocator& rebuilt = remounted.allocator();
  EXPECT_EQ(rebuilt.free_blocks(), live.free_blocks());
  for (uint64_t b = live.first_block(); b < live.first_block() + live.total_blocks(); ++b) {
    ASSERT_EQ(rebuilt.IsAllocated(b), live.IsAllocated(b)) << "block " << b;
  }
}

TEST_F(PublicFsTest, PlanSeparatesCopiesFromMetadata) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "p", 140));
  std::vector<uint8_t> data = Pattern(16384, 6);
  batch.push_back(AppendData(140, 0, data));
  Result<PublishPlan> plan = fs_.PlanPublish(batch, log_);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->copy_bytes, 16384u);
  ASSERT_EQ(plan->copies.size(), 1u);
  EXPECT_EQ(plan->copies[0].kind, CopyOp::Kind::kPayload);

  // Before commit, the file is invisible.
  EXPECT_FALSE(fs_.LookupChild(kRootInode, "p").ok());
  fs_.ExecuteCopies(*plan);
  ASSERT_TRUE(fs_.CommitPublish(*plan, batch).ok());
  Result<FileAttr> attr = fs_.GetAttr(140);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 16384u);
}

TEST_F(PublicFsTest, CoalesceDropsCreateUnlinkLifetime) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "tmp", 150));
  batch.push_back(AppendData(150, 0, Pattern(4096, 8)));
  batch.push_back(AppendUnlink(kRootInode, "tmp", 150));
  batch.push_back(AppendCreate(kRootInode, "kept", 151));
  uint64_t saved = CoalesceEntries(&batch);
  // 4096 data bytes + the 3-byte names of the dropped create and unlink.
  EXPECT_EQ(saved, 4096u + 3 + 3);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].header.inum, 151u);
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());
  EXPECT_TRUE(fs_.LookupChild(kRootInode, "kept").ok());
}

TEST_F(PublicFsTest, CoalesceDropsSupersededWrites) {
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "w", 160));
  std::vector<uint8_t> old_data = Pattern(4096, 1);
  std::vector<uint8_t> new_data = Pattern(4096, 2);
  batch.push_back(AppendData(160, 0, old_data));
  batch.push_back(AppendData(160, 0, new_data));
  uint64_t saved = CoalesceEntries(&batch);
  EXPECT_EQ(saved, 4096u);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());
  std::vector<uint8_t> out(4096);
  ASSERT_TRUE(fs_.ReadData(160, 0, out).ok());
  EXPECT_EQ(out, new_data);
}

TEST_F(PublicFsTest, CoalesceKeepsDistinctRangesWhoseOldHashKeysCollided) {
  // (off 0, len 120KB) and (off 4KB, len 4KB) once shared a hashed key
  // (0 ^ 122880 == 4096 * 31 ^ 4096), which dropped the 120KB write.
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "c", 165));
  std::vector<uint8_t> big = Pattern(122880, 3);
  std::vector<uint8_t> small = Pattern(4096, 9);
  batch.push_back(AppendData(165, 0, big));
  batch.push_back(AppendData(165, 4096, small));
  EXPECT_EQ(CoalesceEntries(&batch), 0u);
  ASSERT_EQ(batch.size(), 3u);
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());
  std::vector<uint8_t> expected = big;
  std::copy(small.begin(), small.end(), expected.begin() + 4096);
  std::vector<uint8_t> out(big.size());
  ASSERT_TRUE(fs_.ReadData(165, 0, out).ok());
  EXPECT_EQ(out, expected);
}

TEST_F(PublicFsTest, ExtentMirrorLoadsEachChainOncePerMount) {
  // Unaligned appends: every other one copies-on-write the previous last
  // block, which splits the run, so the chain grows past one block.
  // Payload bytes elided: publication moves no data.
  PublicFs elided(&region_, layout_, /*materialize=*/false);
  elided.Mkfs();
  std::vector<ParsedEntry> create;
  create.push_back(AppendCreate(kRootInode, "many", 220));
  ASSERT_TRUE(elided.Publish(create, log_).ok());
  uint64_t loads = elided.extents().chain_loads();
  constexpr uint64_t kLen = 3 * kBlockSize / 2;
  constexpr int kAppends = 600;
  for (int i = 0; i < kAppends; ++i) {
    std::vector<ParsedEntry> batch;
    batch.push_back(AppendData(220, i * kLen, Pattern(kLen, 5)));
    ASSERT_TRUE(elided.Publish(batch, log_).ok());
    log_.Reclaim(log_.tail());
  }
  // One miss: the file's first publish found no mirror (of its empty chain).
  EXPECT_EQ(elided.extents().chain_loads(), loads + 1);
  Result<Inode> inode = elided.inodes().Get(220);
  ASSERT_TRUE(inode.ok());
  std::vector<Extent> extents = elided.extents().Load(*inode);
  EXPECT_GT(extents.size(), static_cast<size_t>(kAppends / 3));
  EXPECT_GT(elided.extents().ChainBlocks(*inode).size(), 1u);

  // A crash invalidates the mirror even though nothing was rolled back.
  region_.Crash();
  EXPECT_EQ(elided.extents().Load(*inode), extents);
  EXPECT_EQ(elided.extents().chain_loads(), loads + 2);

  // Mount reloads each live chain once, then serves reads from the mirror.
  ASSERT_TRUE(elided.Mount().ok());
  uint64_t mounted = elided.extents().chain_loads();
  std::vector<uint8_t> out(kLen);
  ASSERT_TRUE(elided.ReadData(220, 7 * kLen, out).ok());
  EXPECT_EQ(elided.extents().Load(*inode), extents);
  EXPECT_EQ(elided.extents().chain_loads(), mounted);
}

TEST_F(PublicFsTest, PlanSeesTruncatesAndWritesEarlierInTheBatch) {
  std::vector<ParsedEntry> setup;
  setup.push_back(AppendCreate(kRootInode, "t", 175));
  setup.push_back(AppendData(175, 0, Pattern(3 * kBlockSize, 1)));
  ASSERT_TRUE(fs_.Publish(setup, log_).ok());

  // A truncate to 0 hides the published blocks from later partial writes in
  // the same batch (their gaps read as zeros), while a partial write over a
  // block planned earlier in the batch keeps that block's bytes.
  std::vector<ParsedEntry> batch;
  LogEntryHeader truncate;
  truncate.type = LogOpType::kTruncate;
  truncate.inum = 175;
  truncate.offset = 0;
  batch.push_back(Append(truncate, {}));
  std::vector<uint8_t> head = Pattern(100, 7);
  std::vector<uint8_t> next = Pattern(kBlockSize, 8);
  std::vector<uint8_t> patch = Pattern(50, 9);
  batch.push_back(AppendData(175, 100, head));
  batch.push_back(AppendData(175, kBlockSize, next));
  batch.push_back(AppendData(175, kBlockSize + 10, patch));
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());

  std::vector<uint8_t> expected(2 * kBlockSize, 0);
  std::copy(head.begin(), head.end(), expected.begin() + 100);
  std::copy(next.begin(), next.end(), expected.begin() + kBlockSize);
  std::copy(patch.begin(), patch.end(), expected.begin() + kBlockSize + 10);
  std::vector<uint8_t> out(expected.size());
  ASSERT_TRUE(fs_.ReadData(175, 0, out).ok());
  EXPECT_EQ(out, expected);
}

TEST_F(PublicFsTest, CoalescePreservesFinalStateOnRandomOps) {
  // Property check: publishing with and without coalescing produces identical
  // final file contents.
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "prop", 170));
  std::vector<uint8_t> model(32 << 10, 0);
  uint64_t seed = 12345;
  for (int i = 0; i < 40; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t off = (seed >> 13) % (24 << 10);
    uint32_t len = 512 + (seed >> 33) % 4096;
    std::vector<uint8_t> data(len, static_cast<uint8_t>(i + 1));
    batch.push_back(AppendData(170, off, data));
    std::memcpy(model.data() + off, data.data(), len);
  }
  CoalesceEntries(&batch);
  ASSERT_TRUE(fs_.Publish(batch, log_).ok());
  Result<FileAttr> attr = fs_.GetAttr(170);
  ASSERT_TRUE(attr.ok());
  std::vector<uint8_t> out(attr->size);
  ASSERT_TRUE(fs_.ReadData(170, 0, out).ok());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], model[i]) << "mismatch at " << i;
  }
}

TEST_F(PublicFsTest, ValidatorRejectsMissingLease) {
  Validator strict(&fs_.inodes(), &fs_.dirs(),
                   [](uint32_t client, InodeNum inum) { return false; });
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "x", 180));
  Status st = strict.Validate(batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kPermission);
}

TEST_F(PublicFsTest, ValidatorDetectsCorruptPayload) {
  Validator lenient(&fs_.inodes(), &fs_.dirs(), [](uint32_t, InodeNum) { return true; });
  std::vector<ParsedEntry> batch;
  batch.push_back(AppendCreate(kRootInode, "c", 190));
  batch.push_back(AppendData(190, 0, Pattern(1024, 3)));
  // Bit flip after CRC computation (payloads are immutable slices: swap in a
  // flipped copy).
  std::vector<uint8_t> flipped(batch[1].payload.begin(), batch[1].payload.end());
  flipped[5] ^= 0xFF;
  batch[1].payload = SharedBytes(std::move(flipped));
  Status st = lenient.Validate(batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorrupt);
}

TEST_F(PublicFsTest, ValidatorRejectsDirectoryCycleRename) {
  Validator lenient(&fs_.inodes(), &fs_.dirs(), [](uint32_t, InodeNum) { return true; });
  std::vector<ParsedEntry> setup;
  setup.push_back(AppendCreate(kRootInode, "a", 200, FileType::kDirectory));
  setup.push_back(AppendCreate(200, "b", 201, FileType::kDirectory));
  ASSERT_TRUE(fs_.Publish(setup, log_).ok());

  // rename("/a", "/a/b/a") — would make `a` its own descendant.
  LogEntryHeader h;
  h.type = LogOpType::kRename;
  h.inum = 200;
  h.parent = kRootInode;
  h.offset = 201;
  std::string payload("a");
  payload.push_back('\0');
  payload += "a";
  h.payload_len = static_cast<uint32_t>(payload.size());
  std::vector<ParsedEntry> batch;
  batch.push_back(Append(h, std::vector<uint8_t>(payload.begin(), payload.end())));
  Status st = lenient.Validate(batch);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kInvalid);
}

TEST(PrivateIndexTest, OverlaysComposeInSeqOrder) {
  PrivateIndex index;
  index.OnData(1, 0, 8192, /*seq=*/1, /*pos=*/0);
  index.OnData(1, 4096, 4096, /*seq=*/2, /*pos=*/8300);
  std::vector<PrivateIndex::Overlay> overlays = index.LookupRange(1, 0, 8192);
  ASSERT_EQ(overlays.size(), 2u);
  EXPECT_EQ(overlays[0].seq, 1u);
  EXPECT_EQ(overlays[1].seq, 2u);
  // Disjoint range sees nothing.
  EXPECT_TRUE(index.LookupRange(1, 1 << 20, 4096).empty());
  EXPECT_TRUE(index.LookupRange(2, 0, 4096).empty());
}

TEST(PrivateIndexTest, NameStateTransitions) {
  PrivateIndex index;
  EXPECT_EQ(index.LookupName(1, "f").first, PrivateIndex::NameState::kUnknown);
  index.OnCreate(1, "f", 50, FileType::kRegular, 0);
  auto [state, inum] = index.LookupName(1, "f");
  EXPECT_EQ(state, PrivateIndex::NameState::kExists);
  EXPECT_EQ(inum, 50u);
  index.OnUnlink(1, "f", 50, 100);
  EXPECT_EQ(index.LookupName(1, "f").first, PrivateIndex::NameState::kDeleted);
  EXPECT_TRUE(index.PendingDeleted(50));
}

TEST(PrivateIndexTest, DropPublishedForgetsOldEntries) {
  PrivateIndex index;
  index.OnData(1, 0, 4096, 1, /*pos=*/0);
  index.OnData(1, 4096, 4096, 2, /*pos=*/5000);
  index.OnCreate(2, "g", 60, FileType::kRegular, /*pos=*/2000);
  index.DropPublished(4000);
  EXPECT_TRUE(index.LookupRange(1, 0, 4096).empty());
  ASSERT_EQ(index.LookupRange(1, 4096, 4096).size(), 1u);
  EXPECT_EQ(index.LookupName(2, "g").first, PrivateIndex::NameState::kUnknown);
}

TEST(PrivateIndexTest, DropPublishedKeepsNewerOverlaysOfASharedBlock) {
  PrivateIndex index;
  index.OnData(1, 0, 6000, 1, /*pos=*/0);        // Blocks 0 and 1.
  index.OnData(1, 4500, 100, 2, /*pos=*/6300);   // Block 1 again.
  index.OnData(1, 8192, 4096, 3, /*pos=*/6500);  // Block 2.
  index.DropPublished(6200);
  EXPECT_TRUE(index.LookupRange(1, 0, 4096).empty());
  std::vector<PrivateIndex::Overlay> block1 = index.LookupRange(1, 4096, 4096);
  ASSERT_EQ(block1.size(), 1u);
  EXPECT_EQ(block1[0].seq, 2u);
  EXPECT_EQ(index.PendingSize(1).value(), 12288u);  // Its last entry is unpublished.
  index.DropPublished(6600);
  EXPECT_TRUE(index.LookupRange(1, 0, 12288).empty());
  EXPECT_FALSE(index.PendingSize(1).has_value());
}

TEST(PrivateIndexTest, DropPublishedForgetsRenamesAndRecreatedNames) {
  PrivateIndex index;
  index.OnCreate(1, "a", 70, FileType::kRegular, /*pos=*/0);
  index.OnRename(1, "a", 1, "b", 70, /*pos=*/100);
  index.OnCreate(1, "a", 71, FileType::kRegular, /*pos=*/200);
  index.DropPublished(150);
  // "a" was re-created after the published prefix; "b" is published.
  auto [state, inum] = index.LookupName(1, "a");
  EXPECT_EQ(state, PrivateIndex::NameState::kExists);
  EXPECT_EQ(inum, 71u);
  EXPECT_EQ(index.LookupName(1, "b").first, PrivateIndex::NameState::kUnknown);
  EXPECT_FALSE(index.PendingType(70).has_value());
  EXPECT_TRUE(index.PendingType(71).has_value());
  index.DropPublished(300);
  EXPECT_EQ(index.LookupName(1, "a").first, PrivateIndex::NameState::kUnknown);
  EXPECT_FALSE(index.PendingType(71).has_value());
}

TEST(PrivateIndexTest, TruncateDropsOverlaysBeyondEnd) {
  PrivateIndex index;
  index.OnData(1, 0, 4096, 1, 0);
  index.OnData(1, 1 << 20, 4096, 2, 5000);
  index.OnTruncate(1, 8192, 10000);
  EXPECT_EQ(index.PendingSize(1).value(), 8192u);
  EXPECT_TRUE(index.LookupRange(1, 1 << 20, 4096).empty());
  EXPECT_EQ(index.LookupRange(1, 0, 4096).size(), 1u);
}

}  // namespace
}  // namespace linefs::fslib
