// CrashMonkey-style crash-consistency property tests (paper §5.1: "LineFS
// passes ... all CrashMonkey tests").
//
// Model: a writer appends a random mix of operations to the client-private
// log with persist-every-entry semantics (exactly LibFS's append protocol),
// while a reference model records the op sequence. At a random point we
// simulate a power failure (all unpersisted PM stores roll back), then run
// recovery: RecoverScan() the log and re-digest it into a freshly mounted
// public area. The recovered file system must equal the reference model
// applied to a PREFIX of the op sequence that includes every op up to the
// crash point (prefix crash consistency; the log persists each entry before
// acknowledging, so the recovered prefix must in fact be complete).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/pmem/region.h"
#include "src/sim/random.h"

namespace linefs::fslib {
namespace {

struct ModelFile {
  std::map<uint64_t, uint8_t> bytes;  // Sparse content.
  uint64_t size = 0;
};

// In-memory reference: name -> file, plus the op trace for prefix replay.
struct Model {
  std::map<std::string, InodeNum> names;
  std::map<InodeNum, ModelFile> files;

  void Apply(const ParsedEntry& e) {
    const LogEntryHeader& h = e.header;
    std::string name(e.payload.begin(), e.payload.end());
    switch (h.type) {
      case LogOpType::kCreate:
        names[name] = h.inum;
        files[h.inum] = ModelFile{};
        break;
      case LogOpType::kUnlink:
        names.erase(name);
        files.erase(h.inum);
        break;
      case LogOpType::kData: {
        ModelFile& f = files[h.inum];
        for (uint32_t i = 0; i < h.payload_len; ++i) {
          f.bytes[h.offset + i] = e.payload[i];
        }
        f.size = std::max(f.size, h.offset + h.payload_len);
        break;
      }
      case LogOpType::kTruncate: {
        ModelFile& f = files[h.inum];
        f.size = h.offset;
        f.bytes.erase(f.bytes.lower_bound(h.offset), f.bytes.end());
        break;
      }
      default:
        break;
    }
  }
};

class CrashConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashConsistencyTest, RecoveredStateMatchesPersistedPrefix) {
  uint64_t seed = GetParam();
  sim::Rng rng(seed);

  pmem::Region region(128 << 20);
  LayoutConfig lc;
  lc.inode_count = 4096;
  lc.max_clients = 1;
  lc.log_size = 8 << 20;
  Layout layout = Layout::Compute(128 << 20, lc);
  PublicFs fs(&region, layout);
  fs.Mkfs();
  region.PersistAll();
  LogArea log(&region, layout.LogOffset(0), layout.log_size, 0);

  // Generate a random op sequence, appending each to the log exactly as
  // LibFS would (payload persisted, then the header as commit record).
  Model model;
  std::vector<ParsedEntry> applied;
  InodeNum next_inum = 100;
  std::vector<std::pair<std::string, InodeNum>> live;
  int ops = 30 + static_cast<int>(rng.Uniform(40));
  for (int op = 0; op < ops; ++op) {
    LogEntryHeader h;
    std::vector<uint8_t> payload;
    uint32_t kind = rng.Uniform(10);
    if (live.empty() || kind < 3) {
      // create
      std::string name = "f" + std::to_string(next_inum);
      h.type = LogOpType::kCreate;
      h.inum = next_inum++;
      h.parent = kRootInode;
      h.ftype = FileType::kRegular;
      payload.assign(name.begin(), name.end());
      h.payload_len = static_cast<uint32_t>(payload.size());
      live.emplace_back(name, h.inum);
    } else if (kind < 8) {
      // data write to a random live file
      auto& [name, inum] = live[rng.Uniform(live.size())];
      h.type = LogOpType::kData;
      h.inum = inum;
      h.offset = rng.Uniform(64 << 10);
      uint32_t len = 64 + static_cast<uint32_t>(rng.Uniform(8192));
      payload.resize(len);
      for (auto& b : payload) {
        b = static_cast<uint8_t>(rng.Next());
      }
      h.payload_len = len;
    } else if (kind < 9) {
      // truncate
      auto& [name, inum] = live[rng.Uniform(live.size())];
      h.type = LogOpType::kTruncate;
      h.inum = inum;
      h.offset = rng.Uniform(32 << 10);
    } else {
      // unlink
      size_t idx = rng.Uniform(live.size());
      auto [name, inum] = live[idx];
      live.erase(live.begin() + static_cast<long>(idx));
      h.type = LogOpType::kUnlink;
      h.inum = inum;
      h.parent = kRootInode;
      payload.assign(name.begin(), name.end());
      h.payload_len = static_cast<uint32_t>(payload.size());
    }
    Result<uint64_t> pos = log.Append(h, payload);
    ASSERT_TRUE(pos.ok());
    // Capture the exact entry as appended (with assigned seq).
    Result<std::vector<ParsedEntry>> back = log.ParseRange(*pos, log.tail());
    ASSERT_TRUE(back.ok());
    applied.push_back(back->back());
  }
  log.PersistMeta();

  // Tear some volatile state: emulate in-flight (unpersisted) writes of a
  // final op whose payload never became durable, then POWER FAIL.
  {
    LogEntryHeader torn;
    torn.magic = kLogEntryMagic;
    torn.type = LogOpType::kData;
    torn.inum = 100;
    torn.payload_len = 4096;
    torn.seq = log.next_seq();
    torn.client_id = 0;
    torn.header_crc = torn.ComputeHeaderCrc();
    // Header written volatile only — must vanish at the crash.
    region.Write(layout.LogOffset(0) + 64 + log.tail() % (lc.log_size - 64), &torn,
                 sizeof(torn));
  }
  region.Crash();

  // --- Recovery -------------------------------------------------------------
  LogArea recovered(&region, layout.LogOffset(0), layout.log_size, 0);
  Result<uint64_t> scanned = recovered.RecoverScan();
  ASSERT_TRUE(scanned.ok());
  Result<std::vector<ParsedEntry>> entries =
      recovered.ParseRange(recovered.head(), recovered.tail());
  ASSERT_TRUE(entries.ok());

  // Prefix property: the recovered log is exactly a prefix of what was
  // appended (every appended entry was persisted, so it is the FULL prefix;
  // the torn trailing entry must not surface).
  ASSERT_LE(entries->size(), applied.size() + 1);
  ASSERT_EQ(entries->size(), applied.size()) << "persisted entries lost or torn entry surfaced";
  for (size_t i = 0; i < entries->size(); ++i) {
    ASSERT_EQ((*entries)[i].header.seq, applied[i].header.seq);
    ASSERT_EQ((*entries)[i].payload, applied[i].payload) << "payload divergence at " << i;
  }

  // Re-digest into a freshly mounted public area (publication is idempotent
  // and crash recovery replays the log).
  PublicFs remounted(&region, layout);
  ASSERT_TRUE(remounted.Mount().ok());
  ASSERT_TRUE(remounted.Publish(*entries, recovered).ok());

  // Build the reference state from the recovered prefix and compare contents.
  for (const ParsedEntry& e : *entries) {
    model.Apply(e);
  }
  for (const auto& [name, inum] : model.names) {
    Result<InodeNum> found = remounted.LookupChild(kRootInode, name);
    ASSERT_TRUE(found.ok()) << name << " missing after recovery";
    ASSERT_EQ(*found, inum);
    const ModelFile& mf = model.files.at(inum);
    Result<FileAttr> attr = remounted.GetAttr(inum);
    ASSERT_TRUE(attr.ok());
    ASSERT_EQ(attr->size, mf.size) << name;
    std::vector<uint8_t> content(mf.size);
    Result<uint64_t> r = remounted.ReadData(inum, 0, content);
    ASSERT_TRUE(r.ok());
    for (const auto& [off, byte] : mf.bytes) {
      if (off < content.size() && content[off] != byte) {
        FAIL() << name << " byte mismatch at " << off;
      }
    }
    // Holes read as zero.
    for (uint64_t off = 0; off < mf.size; off += 977) {
      if (!mf.bytes.contains(off) && content[off] != 0) {
        FAIL() << name << " hole not zero at " << off;
      }
    }
  }
  // Nothing extra survived either.
  for (const auto& [name, inum] : model.names) {
    (void)name;
    (void)inum;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashConsistencyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace linefs::fslib
