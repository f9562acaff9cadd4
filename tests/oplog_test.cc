// Unit tests for the per-client operational log: append/parse round trips,
// ring wrap, chunking, crash recovery, and CRC protection.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/publicfs.h"
#include "src/fslib/validate.h"
#include "src/pmem/region.h"

namespace linefs::fslib {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

LogEntryHeader DataHeader(InodeNum inum, uint64_t offset, uint32_t len) {
  LogEntryHeader h;
  h.type = LogOpType::kData;
  h.inum = inum;
  h.offset = offset;
  h.payload_len = len;
  return h;
}

class OplogTest : public ::testing::Test {
 protected:
  OplogTest() : region_(4 << 20), log_(&region_, 0, 64 << 10, /*client_id=*/7) {}

  pmem::Region region_;
  LogArea log_;
};

TEST_F(OplogTest, AppendAssignsMonotonicSequence) {
  std::vector<uint8_t> payload = Bytes("hello");
  for (uint64_t i = 1; i <= 5; ++i) {
    Result<uint64_t> pos =
        log_.Append(DataHeader(42, i * 100, static_cast<uint32_t>(payload.size())), payload);
    ASSERT_TRUE(pos.ok());
  }
  Result<std::vector<ParsedEntry>> entries = log_.ParseRange(log_.head(), log_.tail());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*entries)[i].header.seq, i + 1);
    EXPECT_EQ((*entries)[i].header.client_id, 7u);
    EXPECT_EQ((*entries)[i].payload, payload);
  }
}

TEST_F(OplogTest, PayloadCrcComputed) {
  std::vector<uint8_t> payload = Bytes("check me");
  ASSERT_TRUE(log_.Append(DataHeader(1, 0, static_cast<uint32_t>(payload.size())), payload).ok());
  Result<std::vector<ParsedEntry>> entries = log_.ParseRange(log_.head(), log_.tail());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ((*entries)[0].header.payload_crc, Crc32c(payload.data(), payload.size()));
}

TEST_F(OplogTest, RingWrapsWithoutStraddling) {
  // 64KB capacity minus meta; append 4KB entries until wrap happens twice.
  std::vector<uint8_t> payload(4096, 0xAB);
  uint64_t appended = 0;
  for (int i = 0; i < 40; ++i) {
    if (!log_.HasSpaceFor(4096)) {
      // Publish everything so far and reclaim.
      Result<std::vector<ParsedEntry>> entries = log_.ParseRange(log_.head(), log_.tail());
      ASSERT_TRUE(entries.ok());
      log_.Reclaim(log_.tail());
    }
    Result<uint64_t> pos = log_.Append(DataHeader(1, i * 4096, 4096), payload);
    ASSERT_TRUE(pos.ok()) << pos.status().ToString();
    ++appended;
  }
  EXPECT_EQ(appended, 40u);
}

TEST_F(OplogTest, FullLogRejectsAppend) {
  std::vector<uint8_t> payload(8192, 1);
  while (log_.HasSpaceFor(8192)) {
    ASSERT_TRUE(log_.Append(DataHeader(1, 0, 8192), payload).ok());
  }
  Result<uint64_t> pos = log_.Append(DataHeader(1, 0, 8192), payload);
  EXPECT_FALSE(pos.ok());
  EXPECT_EQ(pos.code(), ErrorCode::kNoSpace);
  // Reclaiming makes room again.
  log_.Reclaim(log_.tail());
  EXPECT_TRUE(log_.HasSpaceFor(8192));
}

TEST_F(OplogTest, ChunkEndRespectsMaxBytes) {
  std::vector<uint8_t> payload(1000, 2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(log_.Append(DataHeader(1, i * 1000, 1000), payload).ok());
  }
  uint64_t entry_size = ParsedEntry::AlignedSize(1000);
  uint64_t end = log_.ChunkEnd(0, 3 * entry_size);
  EXPECT_EQ(end, 3 * entry_size);
  // A chunk always contains at least one entry even if max_bytes is tiny.
  EXPECT_EQ(log_.ChunkEnd(0, 1), entry_size);
}

TEST_F(OplogTest, ChunkImageParsesLikeDirectParse) {
  std::vector<uint8_t> payload = Bytes("pipeline chunk data");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        log_.Append(DataHeader(9, i * 64, static_cast<uint32_t>(payload.size())), payload).ok());
  }
  Result<LogRange> range = log_.Export(log_.head(), log_.tail());
  ASSERT_TRUE(range.ok());
  Result<std::vector<ParsedEntry>> from_image =
      LogArea::ParseChunkImage(range->image, log_.head());
  ASSERT_TRUE(from_image.ok());
  Result<std::vector<ParsedEntry>> direct = log_.ParseRange(log_.head(), log_.tail());
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(from_image->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*from_image)[i].header.seq, (*direct)[i].header.seq);
    EXPECT_EQ((*from_image)[i].payload, (*direct)[i].payload);
    EXPECT_EQ((*from_image)[i].logical_pos, (*direct)[i].logical_pos);
  }
}

TEST_F(OplogTest, CorruptChunkImageDetected) {
  std::vector<uint8_t> payload = Bytes("data");
  ASSERT_TRUE(log_.Append(DataHeader(1, 0, 4), payload).ok());
  SharedBytes exported = log_.Export(log_.head(), log_.tail())->image;
  std::vector<uint8_t> image(exported.begin(), exported.end());
  image[3] ^= 0xFF;  // Corrupt the magic.
  EXPECT_FALSE(LogArea::ParseChunkImage(SharedBytes(std::move(image)), 0).ok());
}

TEST_F(OplogTest, RecoverScanFindsPersistedPrefix) {
  std::vector<uint8_t> payload(512, 3);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(log_.Append(DataHeader(1, i * 512, 512), payload).ok());
  }
  log_.PersistMeta();
  uint64_t tail_before = log_.tail();

  // Simulate a crash: all appends were persisted entry-by-entry, so the whole
  // log must survive.
  region_.Crash();
  LogArea recovered(&region_, 0, 64 << 10, 7);
  Result<uint64_t> bytes = recovered.RecoverScan();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(recovered.tail(), tail_before);
  EXPECT_EQ(recovered.next_seq(), 7u);
  Result<std::vector<ParsedEntry>> entries =
      recovered.ParseRange(recovered.head(), recovered.tail());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 6u);
}

TEST_F(OplogTest, RecoverScanStopsAtTornEntry) {
  std::vector<uint8_t> payload(512, 4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(log_.Append(DataHeader(1, i * 512, 512), payload).ok());
  }
  log_.PersistMeta();
  // Manually emulate a torn append: header persisted, payload NOT persisted.
  uint64_t pos = log_.tail();
  uint64_t phys = 64 + pos % (64 * 1024 - 64);  // Mirrors LogArea::Phys().
  LogEntryHeader h = DataHeader(1, 9999, 512);
  h.magic = kLogEntryMagic;
  h.seq = log_.next_seq();
  h.client_id = 7;
  h.payload_crc = Crc32c(payload.data(), payload.size());
  h.header_crc = h.ComputeHeaderCrc();
  region_.Write(phys + sizeof(LogEntryHeader), payload.data(), payload.size());  // Volatile.
  region_.WriteObject(phys, h);
  region_.Persist(phys, sizeof(LogEntryHeader));  // Only the header is durable.
  region_.Crash();

  LogArea recovered(&region_, 0, 64 << 10, 7);
  ASSERT_TRUE(recovered.RecoverScan().ok());
  Result<std::vector<ParsedEntry>> entries =
      recovered.ParseRange(recovered.head(), recovered.tail());
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);  // The torn 4th entry is not recovered.
}

TEST(OplogGhost, GhostModeSkipsPayloadBytes) {
  pmem::Region region(1 << 20);
  LogArea log(&region, 0, 256 << 10, 1, /*materialize=*/false);
  LogEntryHeader h = DataHeader(5, 0, 16384);
  Result<uint64_t> pos = log.Append(h, {});
  ASSERT_TRUE(pos.ok());
  Result<std::vector<ParsedEntry>> entries = log.ParseRange(log.head(), log.tail());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_TRUE((*entries)[0].header.flags & kLogFlagGhost);
  EXPECT_EQ((*entries)[0].header.payload_len, 16384u);
  EXPECT_TRUE((*entries)[0].payload.empty());
  // Logical space is still consumed as if the payload were there.
  EXPECT_EQ(log.used_bytes(), ParsedEntry::AlignedSize(16384));
}

TEST(OplogRange, ExportImportRoundTripsInBothModes) {
  // A range exported from one copy of a client's log and imported into
  // another (the replica's, at the same logical position) parses identically:
  // from the image when payloads are materialised, from the headers alone
  // when they are elided.
  for (bool materialize : {true, false}) {
    SCOPED_TRACE(materialize ? "materialised" : "elided");
    pmem::Region region(1 << 20);
    LogArea origin(&region, 0, 256 << 10, 3, materialize);
    LogArea replica(&region, 512 << 10, 256 << 10, 3, materialize);
    std::vector<uint8_t> payload = Bytes("replicated range");
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(origin.Append(DataHeader(4, i * 64, static_cast<uint32_t>(payload.size())),
                                payload).ok());
    }
    Result<LogRange> range = origin.Export(origin.head(), origin.tail());
    ASSERT_TRUE(range.ok());
    EXPECT_EQ(range->image.empty(), !materialize);
    EXPECT_EQ(range->headers.size(), materialize ? 0u : 3u);

    replica.Import(origin.head(), origin.tail(), *range);
    EXPECT_EQ(replica.tail(), origin.tail());
    Result<std::vector<ParsedEntry>> mirrored = replica.ParseRange(0, replica.tail());
    ASSERT_TRUE(mirrored.ok());
    EXPECT_EQ(mirrored->size(), 3u);

    // The receiver's entries come from the carried range, or from its own
    // log when the sender wrote the image there directly (penultimate hop).
    for (bool in_log : {false, true}) {
      Result<std::vector<ParsedEntry>> entries =
          replica.Entries(0, origin.tail(), in_log && materialize ? LogRange{} : *range, in_log);
      ASSERT_TRUE(entries.ok());
      ASSERT_EQ(entries->size(), 3u);
      for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ((*entries)[i].header.seq, i + 1);
        EXPECT_EQ((*entries)[i].payload, materialize ? payload : std::vector<uint8_t>{});
      }
    }
  }
}

TEST(OplogRange, ElidedImportKeepsNamespaceNames) {
  // With data payloads elided, namespace entries still carry their names.
  // The replica's copy of the range must keep them, so it parses and
  // validates like the origin's.
  pmem::Region region(1 << 20);
  LogArea origin(&region, 0, 256 << 10, 3, /*materialize=*/false);
  LogArea replica(&region, 512 << 10, 256 << 10, 3, /*materialize=*/false);
  const std::string name = "report.txt";
  LogEntryHeader create;
  create.type = LogOpType::kCreate;
  create.inum = 40;
  create.parent = kRootInode;
  create.ftype = FileType::kRegular;
  create.payload_len = static_cast<uint32_t>(name.size());
  ASSERT_TRUE(origin.Append(create, Bytes(name)).ok());
  ASSERT_TRUE(origin.Append(DataHeader(40, 0, 16384), {}).ok());

  Result<LogRange> range = origin.Export(origin.head(), origin.tail());
  ASSERT_TRUE(range.ok());
  replica.Import(origin.head(), origin.tail(), *range);
  Result<std::vector<ParsedEntry>> entries = replica.ParseRange(0, replica.tail());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);
  EXPECT_EQ((*entries)[0].payload, Bytes(name));
  EXPECT_TRUE((*entries)[1].payload.empty());

  LayoutConfig config;
  config.inode_count = 256;
  config.max_clients = 1;
  config.log_size = 256 << 10;
  pmem::Region fs_region(8 << 20);
  PublicFs fs(&fs_region, Layout::Compute(8 << 20, config));
  fs.Mkfs();
  Validator validator(&fs.inodes(), &fs.dirs(), [](uint32_t, InodeNum) { return true; });
  Status st = validator.Validate(*entries);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(OplogRange, ElidedImportMirrorsWrapMarkers) {
  // Elided headers skip the wrap markers; the replica must write them back,
  // or its copy of a range that crosses the wrap point stops parsing there.
  pmem::Region region(1 << 20);
  LogArea origin(&region, 0, 64 << 10, 3, /*materialize=*/false);
  LogArea replica(&region, 512 << 10, 64 << 10, 3, /*materialize=*/false);
  uint64_t mirrored = 0;
  for (int lap = 0; lap < 4; ++lap) {
    SCOPED_TRACE(lap);
    while (origin.HasSpaceFor(5000)) {
      ASSERT_TRUE(origin.Append(DataHeader(4, 0, 5000), {}).ok());
    }
    Result<LogRange> range = origin.Export(mirrored, origin.tail());
    ASSERT_TRUE(range.ok());
    replica.Import(mirrored, origin.tail(), *range);
    Result<std::vector<ParsedEntry>> want = origin.ParseRange(mirrored, origin.tail());
    Result<std::vector<ParsedEntry>> got = replica.ParseRange(mirrored, origin.tail());
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_EQ(got->size(), want->size());
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].logical_pos, (*want)[i].logical_pos);
      EXPECT_EQ((*got)[i].header.seq, (*want)[i].header.seq);
    }
    EXPECT_EQ(replica.next_seq(), origin.next_seq());
    mirrored = origin.tail();
    origin.Reclaim(mirrored);
  }
  EXPECT_GT(mirrored, uint64_t{2} * (64 << 10));  // The ring wrapped.
}

TEST(OplogRange, AppendAndImportCaptureNoUndoBytes) {
  // Log appends and imports persist what they store at once: a fresh log
  // leaves no undo record behind and copies no old bytes aside.
  pmem::Region region(1 << 20);
  LogArea origin(&region, 0, 256 << 10, 3);
  LogArea replica(&region, 512 << 10, 256 << 10, 3);
  std::vector<uint8_t> payload(3000, 0x6B);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(origin.Append(DataHeader(4, i * 3000, static_cast<uint32_t>(payload.size())),
                              payload).ok());
  }
  Result<LogRange> range = origin.Export(origin.head(), origin.tail());
  ASSERT_TRUE(range.ok());
  replica.Import(origin.head(), origin.tail(), *range);
  EXPECT_EQ(region.pending_undo_count(), 0u);
  EXPECT_EQ(region.unpersisted_bytes(), 0u);
  EXPECT_EQ(region.undo_bytes_captured(), 0u);
  Result<std::vector<ParsedEntry>> entries = replica.ParseRange(0, replica.tail());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 4u);
  for (const ParsedEntry& entry : *entries) {
    EXPECT_EQ(entry.payload, payload);
  }
}

// A freed log-range image is reused for the next one of about its size; one
// still referenced by a slice is not, and a reused buffer holds only what
// the new fill wrote.
TEST(SharedBytesImages, FreedLargeImagesAreReused) {
  // Larger than any log range the other tests export, so no buffer they
  // freed fits.
  constexpr uint64_t kImage = 6ULL << 20;
  auto filled = [](uint64_t n, uint8_t value) {
    return SharedBytes::Filled(n, [&](uint8_t* bytes) { std::memset(bytes, value, n); });
  };
  const uint8_t* first;
  {
    SharedBytes image = filled(kImage, 1);
    first = image.data();
  }
  SharedBytes again = filled(kImage - 64, 2);
  EXPECT_EQ(again.data(), first);
  EXPECT_TRUE(again == std::vector<uint8_t>(kImage - 64, 2));

  SharedBytes slice = again.Slice(8, 16);
  again = SharedBytes();
  SharedBytes other = filled(kImage, 3);
  EXPECT_NE(other.data(), first) << "reused a buffer a slice still holds";
  EXPECT_TRUE(slice == std::vector<uint8_t>(16, 2));

  // A much smaller image does not take a large buffer.
  const uint8_t* large = other.data();
  other = SharedBytes();
  SharedBytes small = filled(kImage / 2, 4);
  EXPECT_NE(small.data(), large);
}

TEST(Crc32c, KnownVector) {
  // The CRC32C check value (RFC 3720 B.4).
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(Crc32cSlicing8(digits, 9, 0), 0xE3069283u);
}

TEST(Crc32c, HardwareMatchesTablePath) {
  if (!Crc32cHasHardware()) {
    GTEST_SKIP() << "CPU has no crc32 instruction";
  }
  std::mt19937_64 rng(20261017);
  std::vector<uint8_t> buf((4 << 20) + 64 + 16);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  auto check = [&](size_t len, size_t start) {
    auto seed = static_cast<uint32_t>(rng());
    for (uint32_t s : {0u, seed}) {
      ASSERT_EQ(Crc32cHardware(buf.data() + start, len, s),
                Crc32cSlicing8(buf.data() + start, len, s))
          << "len " << len << " start " << start << " seed " << s;
    }
  };
  // Every length through the serial tail and the first three-stream rounds
  // of 256-byte blocks.
  for (size_t len = 0; len <= 4097; ++len) {
    for (size_t start : {0, 1, 3, 7, 13}) {
      check(len, start);
    }
  }
  // The edges where the kernel switches between 3 x 8KB rounds, 3 x 256B
  // rounds and the serial tail, and a few sizes well past them.
  for (size_t edge : {size_t{3 * 256}, size_t{3 * 8192}, size_t{2 * 3 * 8192},
                      size_t{(256 << 10) + 64}, size_t{4 << 20}}) {
    for (size_t delta = 0; delta <= 8; ++delta) {
      for (size_t start : {0, 1, 7, 13}) {
        check(edge - delta, start);
        check(edge + delta, start);
      }
    }
  }
  for (int i = 0; i < 50; ++i) {
    check(rng() % (buf.size() - 16), rng() % 16);
  }
}

}  // namespace
}  // namespace linefs::fslib
