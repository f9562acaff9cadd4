// Unit tests for the per-client operational log: append/parse round trips,
// ring wrap, chunking, crash recovery, and CRC protection.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/fslib/oplog.h"
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
  std::vector<uint8_t> image;
  log_.CopyRawOut(log_.head(), log_.tail(), &image);
  Result<std::vector<ParsedEntry>> from_image = LogArea::ParseChunkImage(image, log_.head());
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
  std::vector<uint8_t> image;
  log_.CopyRawOut(log_.head(), log_.tail(), &image);
  image[3] ^= 0xFF;  // Corrupt the magic.
  EXPECT_FALSE(LogArea::ParseChunkImage(image, 0).ok());
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
  std::vector<uint8_t> buf(4097 + 16);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  for (size_t len = 0; len <= 4097; ++len) {
    for (size_t start : {0, 1, 3, 7, 13}) {
      auto seed = static_cast<uint32_t>(rng());
      for (uint32_t s : {0u, seed}) {
        ASSERT_EQ(Crc32cHardware(buf.data() + start, len, s),
                  Crc32cSlicing8(buf.data() + start, len, s))
            << "len " << len << " start " << start << " seed " << s;
      }
    }
  }
}

}  // namespace
}  // namespace linefs::fslib
