// Parameterized property sweeps over core invariants:
//  - extent lists vs a reference block map under random insert/truncate mixes,
//    and their DRAM mirrors vs the chains in PM (also across crashes)
//  - coalescing equivalence: publishing with and without coalescing yields an
//    identical final file system
//  - LZW round trip across data distributions
//  - CPU pool work conservation
//  - end-to-end replica convergence under random op sequences (all modes)

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tests/co_test_util.h"

#include "src/compress/lzw.h"
#include "src/core/cluster.h"
#include "src/core/dfs_node.h"
#include "src/core/libfs.h"
#include "src/fslib/index.h"
#include "src/fslib/extent.h"
#include "src/fslib/layout.h"
#include "src/fslib/publicfs.h"
#include "src/pmem/region.h"
#include "src/sim/cpu.h"
#include "src/sim/random.h"

namespace linefs {
namespace {

// --- Extent list vs reference model ------------------------------------------------

class ExtentPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Chain block capacity: a 16-byte header, then 24-byte entries.
  static constexpr uint64_t kEntriesPerChainBlock =
      (fslib::kBlockSize - 16) / sizeof(fslib::Extent);

  ExtentPropertyTest() : region_(64 << 20), alloc_(1024, 8192), extents_(&region_, &alloc_) {
    inode_.inum = 7;
    inode_.type = fslib::FileType::kRegular;
  }

  void Insert(uint64_t lblock, uint64_t count, uint64_t pblock) {
    std::vector<fslib::Extent> freed;
    ASSERT_TRUE(extents_.InsertRange(&inode_, lblock, count, pblock, &freed).ok());
    for (const fslib::Extent& f : freed) {
      alloc_.Free(f.pblock, f.count);
    }
    for (uint64_t i = 0; i < count; ++i) {
      reference_[lblock + i] = pblock + i;
    }
    CheckMirror();
  }

  void Truncate(uint64_t cut) {
    std::vector<fslib::Extent> freed;
    ASSERT_TRUE(extents_.TruncateTo(&inode_, cut, &freed).ok());
    for (const fslib::Extent& f : freed) {
      alloc_.Free(f.pblock, f.count);
    }
    reference_.erase(reference_.lower_bound(cut), reference_.end());
    CheckMirror();
  }

  void Destroy() {
    ASSERT_TRUE(extents_.Destroy(&inode_).ok());
    reference_.clear();
    CheckMirror();
    EXPECT_TRUE(extents_.Load(inode_).empty());
    EXPECT_EQ(alloc_.free_blocks(), alloc_.total_blocks());
  }

  // The DRAM mirror serves what a fresh decode of the chain in PM yields.
  void CheckMirror() {
    fslib::ExtentList fresh(&region_, &alloc_);
    ASSERT_EQ(extents_.Load(inode_), fresh.Load(inode_));
    ASSERT_EQ(extents_.ChainBlocks(inode_), fresh.ChainBlocks(inode_));
  }

  // The allocator holds exactly the reachable chain blocks plus the mapped
  // data blocks (nothing leaked, nothing freed twice), and the chain is no
  // longer than its entries need.
  void CheckAllocation() {
    std::vector<uint64_t> chain = extents_.ChainBlocks(inode_);
    std::vector<fslib::Extent> all = extents_.Load(inode_);
    ASSERT_EQ(chain.size(), (all.size() + kEntriesPerChainBlock - 1) / kEntriesPerChainBlock);
    std::vector<bool> owned(alloc_.total_blocks(), false);
    auto own = [&](uint64_t block) {
      ASSERT_GE(block, alloc_.first_block());
      uint64_t idx = block - alloc_.first_block();
      ASSERT_LT(idx, owned.size());
      ASSERT_FALSE(owned[idx]) << "block " << block << " referenced twice";
      owned[idx] = true;
    };
    for (uint64_t block : chain) {
      own(block);
    }
    for (const fslib::Extent& e : all) {
      for (uint64_t i = 0; i < e.count; ++i) {
        own(e.pblock + i);
      }
    }
    for (uint64_t idx = 0; idx < owned.size(); ++idx) {
      ASSERT_EQ(alloc_.IsAllocated(alloc_.first_block() + idx), owned[idx])
          << "block " << alloc_.first_block() + idx;
    }
  }

  void ProbeLookups(sim::Rng* rng, uint64_t range) {
    for (int probe = 0; probe < 40; ++probe) {
      uint64_t lblock = rng->Uniform(range);
      std::optional<fslib::Extent> found = extents_.Lookup(inode_, lblock);
      auto it = reference_.find(lblock);
      if (it == reference_.end()) {
        ASSERT_FALSE(found.has_value()) << "phantom mapping at " << lblock;
      } else {
        ASSERT_TRUE(found.has_value()) << "missing mapping at " << lblock;
        ASSERT_EQ(found->pblock, it->second) << "wrong mapping at " << lblock;
      }
    }
  }

  void CheckFullMap() {
    std::vector<fslib::Extent> all = extents_.Load(inode_);
    uint64_t mapped = 0;
    for (const fslib::Extent& e : all) {
      for (uint64_t i = 0; i < e.count; ++i) {
        auto it = reference_.find(e.lblock + i);
        ASSERT_TRUE(it != reference_.end());
        ASSERT_EQ(it->second, e.pblock + i);
        ++mapped;
      }
    }
    ASSERT_EQ(mapped, reference_.size());
  }

  pmem::Region region_;
  pmem::BlockAllocator alloc_;
  fslib::ExtentList extents_;
  fslib::Inode inode_;
  std::map<uint64_t, uint64_t> reference_;  // lblock -> pblock
};

TEST_P(ExtentPropertyTest, MatchesReferenceBlockMap) {
  sim::Rng rng(GetParam());
  for (int op = 0; op < 200; ++op) {
    if (rng.Uniform(10) < 8) {
      uint64_t lblock = rng.Uniform(512);
      uint64_t count = 1 + rng.Uniform(32);
      Result<uint64_t> pblock = alloc_.Alloc(count);
      ASSERT_TRUE(pblock.ok());
      ASSERT_NO_FATAL_FAILURE(Insert(lblock, count, *pblock));
    } else {
      ASSERT_NO_FATAL_FAILURE(Truncate(rng.Uniform(512)));
    }
    ASSERT_NO_FATAL_FAILURE(CheckAllocation());
    // Spot-check a sample of blocks every few ops.
    if (op % 10 == 9) {
      ASSERT_NO_FATAL_FAILURE(ProbeLookups(&rng, 560));
    }
  }
  ASSERT_NO_FATAL_FAILURE(CheckFullMap());
  ASSERT_NO_FATAL_FAILURE(Destroy());
}

// Mostly appends at the end of the file, as fsync-per-write publication does:
// contiguous ones grow the last run in place, gapped ones add entries to the
// tail block and spill into new chain blocks, while rarer middle overwrites
// and truncates rewrite a chain suffix.
TEST_P(ExtentPropertyTest, AppendHeavyMixMatchesReferenceBlockMap) {
  sim::Rng rng(GetParam());
  uint64_t end = 0;  // Logical end of the file.
  int in_place = 0;
  int rewritten = 0;
  for (int op = 0; op < 1500; ++op) {
    uint64_t before = region_.total_bytes_written();
    uint32_t kind = rng.Uniform(100);
    uint64_t count = 1 + rng.Uniform(4);
    if (kind < 85 || end == 0) {
      // Append; a gapped one leaves a free block before its run so it cannot
      // merge with the previous run.
      bool gapped = kind >= 45;
      Result<uint64_t> run = alloc_.Alloc(count + (gapped ? 1 : 0));
      ASSERT_TRUE(run.ok());
      if (gapped) {
        alloc_.Free(*run);
      }
      ASSERT_NO_FATAL_FAILURE(Insert(end, count, *run + (gapped ? 1 : 0)));
      end += count;
    } else if (kind < 95) {
      uint64_t lblock = rng.Uniform(end);
      Result<uint64_t> pblock = alloc_.Alloc(count);
      ASSERT_TRUE(pblock.ok());
      ASSERT_NO_FATAL_FAILURE(Insert(lblock, count, *pblock));
      end = std::max(end, lblock + count);
    } else {
      end -= rng.Uniform(std::min<uint64_t>(end, 24) + 1);
      ASSERT_NO_FATAL_FAILURE(Truncate(end));
    }
    // An in-place update writes at most one entry plus a count.
    uint64_t written = region_.total_bytes_written() - before;
    (written <= sizeof(fslib::Extent) + sizeof(uint32_t) ? in_place : rewritten) += 1;
    ASSERT_NO_FATAL_FAILURE(CheckAllocation());
    if (op % 25 == 24) {
      ASSERT_NO_FATAL_FAILURE(ProbeLookups(&rng, end + 64));
    }
  }
  ASSERT_NO_FATAL_FAILURE(CheckFullMap());
  EXPECT_GT(extents_.ChainBlocks(inode_).size(), 1u);
  EXPECT_GT(in_place, 0);
  EXPECT_GT(rewritten, 0);
  ASSERT_NO_FATAL_FAILURE(Destroy());
}

// Power fails at a random persist point inside an extent update (before the
// caller's inode write, or after it). The mirror must then serve exactly the
// chain in PM, which holds the old list or the new one, and so must every
// mirror PublicFs::Mount() reloads.
TEST_P(ExtentPropertyTest, MirrorMatchesPmAfterCrashAtRandomPersistPoints) {
  sim::Rng rng(GetParam());
  fslib::LayoutConfig lc;
  lc.inode_count = 64;
  lc.max_clients = 1;
  lc.log_size = 1 << 20;
  fslib::Layout layout = fslib::Layout::Compute(region_.size(), lc);
  fslib::PublicFs fs(&region_, layout);
  fs.Mkfs();
  constexpr fslib::InodeNum kFirst = 10;
  constexpr int kFiles = 3;
  for (int f = 0; f < kFiles; ++f) {
    fslib::Inode inode;
    inode.inum = kFirst + f;
    inode.type = fslib::FileType::kRegular;
    fs.inodes().Put(inode);
  }
  // A decode of the chain in PM by an ExtentList with no mirrors yet.
  auto decode = [&](const fslib::Inode& inode) {
    fslib::ExtentList fresh(&region_, &fs.allocator());
    return std::make_pair(fresh.Load(inode), fresh.ChainBlocks(inode));
  };
  uint64_t crashes = 0;
  for (int op = 0; op < 1200; ++op) {
    fslib::InodeNum inum = kFirst + rng.Uniform(kFiles);
    Result<fslib::Inode> inode = fs.inodes().Get(inum);
    ASSERT_TRUE(inode.ok());
    std::vector<fslib::Extent> before = fs.extents().Load(*inode);
    bool crash = rng.Uniform(4) == 0;
    if (crash) {
      region_.FailAfterPersists(rng.Uniform(5));
    }
    std::vector<fslib::Extent> freed;
    if (rng.Uniform(10) < 8) {
      uint64_t end = before.empty() ? 0 : before.back().lblock + before.back().count;
      uint64_t lblock = rng.Uniform(4) == 0 ? rng.Uniform(end + 1) : end + rng.Uniform(2);
      uint64_t count = 1 + rng.Uniform(3);
      Result<uint64_t> pblock = fs.allocator().Alloc(count);
      ASSERT_TRUE(pblock.ok());
      ASSERT_TRUE(fs.extents().InsertRange(&inode.value(), lblock, count, *pblock, &freed).ok());
    } else {
      uint64_t end = before.empty() ? 0 : before.back().lblock + before.back().count;
      ASSERT_TRUE(fs.extents().TruncateTo(&inode.value(), rng.Uniform(end + 1), &freed).ok());
    }
    for (const fslib::Extent& e : freed) {
      fs.allocator().Free(e.pblock, e.count);
    }
    std::vector<fslib::Extent> after = fs.extents().Load(*inode);
    fs.inodes().Put(*inode);
    if (!crash) {
      continue;
    }
    ++crashes;
    region_.Crash();
    Result<fslib::Inode> durable = fs.inodes().Get(inum);
    ASSERT_TRUE(durable.ok());
    std::vector<fslib::Extent> mirrored = fs.extents().Load(*durable);
    ASSERT_EQ(mirrored, decode(*durable).first) << "op " << op;
    ASSERT_TRUE(mirrored == before || mirrored == after) << "op " << op;
    ASSERT_TRUE(fs.Mount().ok());
    for (int f = 0; f < kFiles; ++f) {
      Result<fslib::Inode> file = fs.inodes().Get(kFirst + f);
      ASSERT_TRUE(file.ok());
      auto [extents, blocks] = decode(*file);
      ASSERT_EQ(fs.extents().Load(*file), extents) << "op " << op;
      ASSERT_EQ(fs.extents().ChainBlocks(*file), blocks) << "op " << op;
    }
  }
  EXPECT_GT(crashes, 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentPropertyTest, ::testing::Range<uint64_t>(1, 9));

// --- Coalescing equivalence -----------------------------------------------------------

class CoalescePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoalescePropertyTest, PublishingWithAndWithoutCoalescingIsEquivalent) {
  sim::Rng rng(GetParam());
  // Two identical regions; publish the same entries with/without coalescing.
  auto build = [&](bool coalesce, sim::Rng rng_copy) -> std::vector<uint8_t> {
    pmem::Region region(64 << 20);
    fslib::LayoutConfig lc;
    lc.inode_count = 1024;
    lc.max_clients = 1;
    lc.log_size = 8 << 20;
    fslib::Layout layout = fslib::Layout::Compute(64 << 20, lc);
    fslib::PublicFs fs(&region, layout);
    fs.Mkfs();
    fslib::LogArea log(&region, layout.LogOffset(0), layout.log_size, 0);

    std::vector<fslib::ParsedEntry> batch;
    auto append = [&](fslib::LogEntryHeader h, std::vector<uint8_t> payload) {
      Result<uint64_t> pos = log.Append(h, payload);
      EXPECT_TRUE(pos.ok());
      Result<std::vector<fslib::ParsedEntry>> back = log.ParseRange(*pos, log.tail());
      EXPECT_TRUE(back.ok());
      batch.push_back(back->back());
    };
    // Random mix: persistent file + temporary create/write/delete churn.
    fslib::LogEntryHeader create;
    create.type = fslib::LogOpType::kCreate;
    create.inum = 50;
    create.parent = fslib::kRootInode;
    create.ftype = fslib::FileType::kRegular;
    std::string name = "keeper";
    create.payload_len = static_cast<uint32_t>(name.size());
    append(create, std::vector<uint8_t>(name.begin(), name.end()));
    for (int i = 0; i < 30; ++i) {
      if (rng_copy.Uniform(3) == 0) {
        // Temporary file lifetime fully inside the batch.
        fslib::LogEntryHeader tc = create;
        tc.inum = 100 + i;
        std::string tn = "tmp" + std::to_string(i);
        tc.payload_len = static_cast<uint32_t>(tn.size());
        append(tc, std::vector<uint8_t>(tn.begin(), tn.end()));
        fslib::LogEntryHeader td;
        td.type = fslib::LogOpType::kData;
        td.inum = 100 + i;
        td.offset = 0;
        std::vector<uint8_t> tp(2048, static_cast<uint8_t>(i));
        td.payload_len = static_cast<uint32_t>(tp.size());
        append(td, tp);
        fslib::LogEntryHeader tu;
        tu.type = fslib::LogOpType::kUnlink;
        tu.inum = 100 + i;
        tu.parent = fslib::kRootInode;
        tu.payload_len = static_cast<uint32_t>(tn.size());
        append(tu, std::vector<uint8_t>(tn.begin(), tn.end()));
      } else {
        fslib::LogEntryHeader d;
        d.type = fslib::LogOpType::kData;
        d.inum = 50;
        d.offset = rng_copy.Uniform(32 << 10);
        std::vector<uint8_t> payload(512 + rng_copy.Uniform(4096));
        for (auto& b : payload) {
          b = static_cast<uint8_t>(rng_copy.Next());
        }
        d.payload_len = static_cast<uint32_t>(payload.size());
        append(d, payload);
      }
    }
    if (coalesce) {
      fslib::CoalesceEntries(&batch);
    }
    EXPECT_TRUE(fs.Publish(batch, log, true).ok());
    Result<fslib::InodeNum> inum = fs.LookupChild(fslib::kRootInode, "keeper");
    EXPECT_TRUE(inum.ok());
    Result<fslib::FileAttr> attr = fs.GetAttr(*inum);
    EXPECT_TRUE(attr.ok());
    std::vector<uint8_t> content(attr.ok() ? attr->size : 0);
    EXPECT_TRUE(fs.ReadData(*inum, 0, content).ok());
    return content;
  };

  std::vector<uint8_t> with = build(true, rng);
  std::vector<uint8_t> without = build(false, rng);
  ASSERT_EQ(with.size(), without.size());
  ASSERT_EQ(with, without);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescePropertyTest, ::testing::Range<uint64_t>(10, 18));

// --- Private index vs a reference block map ------------------------------------------

class PrivateIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Random writes, truncates, unlinks and publication against a reference that
// keeps each block's overlay list in a std::map.
TEST_P(PrivateIndexPropertyTest, LookupsMatchReferenceBlockMap) {
  using Overlay = fslib::PrivateIndex::Overlay;
  sim::Rng rng(GetParam());
  fslib::PrivateIndex index;
  std::map<std::pair<fslib::InodeNum, uint64_t>, std::vector<Overlay>> reference;
  uint64_t pos = 0;
  uint64_t published = 0;
  auto lookup_reference = [&](fslib::InodeNum inum, uint64_t offset, uint64_t len) {
    std::map<uint64_t, Overlay> by_seq;
    for (uint64_t b = offset >> fslib::kBlockShift; b <= (offset + len - 1) >> fslib::kBlockShift;
         ++b) {
      auto it = reference.find({inum, b});
      if (it == reference.end()) {
        continue;
      }
      for (const Overlay& o : it->second) {
        if (o.file_offset < offset + len && o.file_offset + o.len > offset) {
          by_seq[o.seq] = o;
        }
      }
    }
    std::vector<uint64_t> seqs;
    for (const auto& [seq, o] : by_seq) {
      seqs.push_back(seq);
    }
    return seqs;
  };
  for (uint64_t seq = 1; seq <= 6000; ++seq) {
    fslib::InodeNum inum = 1 + rng.Uniform(3);
    uint32_t kind = rng.Uniform(100);
    pos += 100 + rng.Uniform(100);
    if (kind < 80) {
      uint64_t offset = rng.Uniform(4000) * 1024;
      uint32_t len = static_cast<uint32_t>(1 + rng.Uniform(5 * fslib::kBlockSize));
      index.OnData(inum, offset, len, seq, pos);
      Overlay o{seq, pos, offset, len};
      for (uint64_t b = offset >> fslib::kBlockShift;
           b <= (offset + len - 1) >> fslib::kBlockShift; ++b) {
        reference[{inum, b}].push_back(o);
      }
    } else if (kind < 85) {
      uint64_t size = rng.Uniform(4000) * 1024;
      index.OnTruncate(inum, size, pos);
      reference.erase(reference.lower_bound({inum, fslib::BlocksFor(size)}),
                      reference.lower_bound({inum + 1, 0}));
    } else if (kind < 87) {
      index.OnUnlink(fslib::kRootInode, "f" + std::to_string(inum), inum, pos);
      reference.erase(reference.lower_bound({inum, 0}), reference.lower_bound({inum + 1, 0}));
    } else {
      published += rng.Uniform(pos - published + 1);
      index.DropPublished(published);
      for (auto it = reference.begin(); it != reference.end();) {
        std::erase_if(it->second, [&](const Overlay& o) { return o.logical_pos < published; });
        it = it->second.empty() ? reference.erase(it) : std::next(it);
      }
    }
    if (seq % 20 == 0) {
      for (int probe = 0; probe < 10; ++probe) {
        fslib::InodeNum target = 1 + rng.Uniform(3);
        uint64_t offset = rng.Uniform(4200) * 1024;
        uint64_t len = 1 + rng.Uniform(8 * fslib::kBlockSize);
        std::vector<uint64_t> got;
        for (const Overlay& o : index.LookupRange(target, offset, len)) {
          got.push_back(o.seq);
        }
        ASSERT_EQ(got, lookup_reference(target, offset, len)) << "seq " << seq;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrivateIndexPropertyTest, ::testing::Range<uint64_t>(1, 5));

// --- History bitmap vs a reference set ---------------------------------------------

class HistoryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoryPropertyTest, UpdatedSinceMatchesReferenceSets) {
  sim::Rng rng(GetParam());
  core::InodeHistory history;
  std::map<uint64_t, std::set<fslib::InodeNum>> reference;
  uint64_t epoch = 1;
  for (int op = 0; op < 3000; ++op) {
    // Mostly the current epoch (with repeats), sometimes an older or a new one.
    uint32_t kind = rng.Uniform(100);
    uint64_t at = kind < 5 ? 1 + rng.Uniform(epoch) : epoch;
    if (kind >= 98) {
      at = ++epoch;
    }
    fslib::InodeNum inum =
        rng.Uniform(3) == 0 ? rng.Uniform(64) : rng.Uniform(kind < 50 ? 200 : 5000);
    history.Record(at, inum);
    reference[at].insert(inum);
    if (op % 100 == 99) {
      uint64_t from = rng.Uniform(epoch + 2);
      std::set<fslib::InodeNum> expected;
      for (auto it = reference.lower_bound(from); it != reference.end(); ++it) {
        expected.insert(it->second.begin(), it->second.end());
      }
      ASSERT_EQ(history.UpdatedSince(from), expected) << "op " << op << " from " << from;
    }
  }
  EXPECT_TRUE(history.UpdatedSince(epoch + 1).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryPropertyTest, ::testing::Range<uint64_t>(1, 5));

// --- LZW round trip across distributions ------------------------------------------------

class LzwPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LzwPropertyTest, RoundTripsAcrossDistributions) {
  int kind = GetParam();
  sim::Rng rng(kind * 7919 + 1);
  std::vector<uint8_t> input(200000 + rng.Uniform(200000));
  for (size_t i = 0; i < input.size(); ++i) {
    switch (kind % 5) {
      case 0:  // uniform random
        input[i] = static_cast<uint8_t>(rng.Next());
        break;
      case 1:  // runs
        input[i] = static_cast<uint8_t>((i / 977) % 7);
        break;
      case 2:  // low-entropy alphabet
        input[i] = static_cast<uint8_t>(rng.Uniform(4));
        break;
      case 3:  // periodic
        input[i] = static_cast<uint8_t>(i % 251);
        break;
      case 4:  // mixed zero blocks + noise
        input[i] = ((i / 512) % 3 == 0) ? 0 : static_cast<uint8_t>(rng.Next());
        break;
    }
  }
  std::vector<uint8_t> compressed = compress::LzwCompress(input);
  Result<std::vector<uint8_t>> restored = compress::LzwDecompress(compressed);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(*restored, input);
}

INSTANTIATE_TEST_SUITE_P(Distributions, LzwPropertyTest, ::testing::Range(0, 10));

// --- CPU pool work conservation ------------------------------------------------------------

class CpuPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpuPropertyTest, WorkIsConservedAndBounded) {
  sim::Rng rng(GetParam());
  sim::Engine engine;
  sim::CpuPool::Options opt;
  opt.cores = 1 + static_cast<int>(rng.Uniform(8));
  opt.context_switch_cost = 0;
  opt.dispatch_latency = 0;
  opt.jitter_prob = 0;
  sim::CpuPool cpu(&engine, "prop", opt);
  int acct = cpu.RegisterAccount("w");
  int tasks = 1 + static_cast<int>(rng.Uniform(16));
  sim::Time total_work = 0;
  for (int i = 0; i < tasks; ++i) {
    sim::Time work = static_cast<sim::Time>((1 + rng.Uniform(20)) * sim::kMillisecond);
    total_work += work;
    engine.Spawn(cpu.Run(work, sim::Priority::kNormal, acct));
  }
  engine.Run();
  // All work was executed exactly once...
  EXPECT_DOUBLE_EQ(cpu.BusySeconds(acct), sim::ToSeconds(total_work));
  // ...no faster than the core count allows, and work-conserving (within one
  // quantum of rounding per task).
  double lower = sim::ToSeconds(total_work) / opt.cores;
  EXPECT_GE(sim::ToSeconds(engine.Now()) + 1e-9, lower);
  double serial = sim::ToSeconds(total_work);
  EXPECT_LE(sim::ToSeconds(engine.Now()), serial + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuPropertyTest, ::testing::Range<uint64_t>(100, 110));

// --- End-to-end replica convergence under random workloads -----------------------------------

class ConvergencePropertyTest
    : public ::testing::TestWithParam<std::tuple<core::DfsMode, uint64_t>> {};

TEST_P(ConvergencePropertyTest, ReplicasConvergeToClientView) {
  auto [mode, seed] = GetParam();
  sim::Engine engine;
  core::DfsConfig config;
  config.mode = mode;
  config.num_nodes = 3;
  config.pm_size = 256ULL << 20;
  config.log_size = 8ULL << 20;
  config.inode_count = 8192;
  config.chunk_size = 512ULL << 10;
  config.materialize_data = true;
  auto cluster = std::make_unique<core::Cluster>(&engine, config);
  Status start_st = cluster->Start();
  EXPECT_TRUE(start_st.ok()) << start_st.ToString();
  core::LibFs* fs = cluster->CreateClient(0);

  // Random op script; remember which files survive and a digest of contents.
  std::map<std::string, std::vector<uint8_t>> expected;
  bool done = false;
  engine.Spawn([](core::LibFs* fs, uint64_t seed,
                  std::map<std::string, std::vector<uint8_t>>* expected,
                  bool* done) -> sim::Task<> {
    sim::Rng rng(seed);
    std::vector<std::string> live;
    for (int op = 0; op < 40; ++op) {
      uint32_t kind = rng.Uniform(10);
      if (live.empty() || kind < 4) {
        std::string name = "p" + std::to_string(op);
        Result<int> fd = co_await fs->Open("/" + name,
                                           fslib::kOpenCreate | fslib::kOpenWrite);
        CO_ASSERT_OK(fd);
        std::vector<uint8_t> data(1024 + rng.Uniform(64 << 10));
        for (auto& b : data) {
          b = static_cast<uint8_t>(rng.Next());
        }
        CO_ASSERT_OK((co_await fs->Write(*fd, data)));
        co_await fs->Close(*fd);
        (*expected)["/" + name] = std::move(data);
        live.push_back(name);
      } else if (kind < 7) {
        std::string name = live[rng.Uniform(live.size())];
        Result<int> fd = co_await fs->Open("/" + name, fslib::kOpenWrite);
        CO_ASSERT_OK(fd);
        uint64_t offset = rng.Uniform(expected->at("/" + name).size());
        std::vector<uint8_t> patch(1 + rng.Uniform(4096));
        for (auto& b : patch) {
          b = static_cast<uint8_t>(rng.Next());
        }
        CO_ASSERT_OK((co_await fs->Pwrite(*fd, patch, offset)));
        co_await fs->Close(*fd);
        std::vector<uint8_t>& model = (*expected)["/" + name];
        if (model.size() < offset + patch.size()) {
          model.resize(offset + patch.size());
        }
        std::copy(patch.begin(), patch.end(), model.begin() + static_cast<long>(offset));
      } else if (kind < 9) {
        size_t idx = rng.Uniform(live.size());
        std::string name = live[idx];
        CO_ASSERT_OK(co_await fs->Unlink("/" + name));
        expected->erase("/" + name);
        live.erase(live.begin() + static_cast<long>(idx));
      } else {
        std::string from = live[rng.Uniform(live.size())];
        std::string to = from + "r";
        Status st = co_await fs->Rename("/" + from, "/" + to);
        if (st.ok()) {
          (*expected)["/" + to] = std::move((*expected)["/" + from]);
          expected->erase("/" + from);
          for (std::string& n : live) {
            if (n == from) {
              n = to;
            }
          }
        }
      }
    }
    if (!live.empty()) {
      Result<int> fd = co_await fs->Open("/" + live[0], fslib::kOpenWrite);
      if (fd.ok()) {
        CO_ASSERT_OK(co_await fs->Fsync(*fd));
      }
    }
    *done = true;
  }(fs, seed, &expected, &done));
  sim::Time deadline = engine.Now() + 600 * sim::kSecond;
  while (!done && engine.Now() < deadline && engine.RunOne()) {
  }
  ASSERT_TRUE(done);
  engine.RunUntil(engine.Now() + 8 * sim::kSecond);  // Publication drains everywhere.

  for (int node = 0; node < 3; ++node) {
    fslib::PublicFs& pub = cluster->dfs_node(node).fs();
    for (const auto& [path, content] : expected) {
      std::string name = path.substr(1);
      Result<fslib::InodeNum> inum = pub.LookupChild(fslib::kRootInode, name);
      ASSERT_TRUE(inum.ok()) << "node " << node << " missing " << name;
      Result<fslib::FileAttr> attr = pub.GetAttr(*inum);
      ASSERT_TRUE(attr.ok());
      ASSERT_EQ(attr->size, content.size()) << "node " << node << " " << name;
      std::vector<uint8_t> out(content.size());
      ASSERT_TRUE(pub.ReadData(*inum, 0, out).ok());
      ASSERT_EQ(out, content) << "node " << node << " content divergence in " << name;
    }
  }
  cluster->Shutdown();
  engine.Run();
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, ConvergencePropertyTest,
    ::testing::Combine(::testing::Values(core::DfsMode::kLineFS, core::DfsMode::kAssise,
                                         core::DfsMode::kAssiseBgRepl,
                                         core::DfsMode::kAssiseHyperloop),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<core::DfsMode, uint64_t>>& info) {
      std::string name = core::DfsModeName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-' || c == '+') {
          c = '_';
        }
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace linefs
