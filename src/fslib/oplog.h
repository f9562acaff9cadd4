// Per-client operational log (§3.2).
//
// LibFS persists every mutation as a log entry in its private PM log area:
// a compact, strictly ordered record that NICFS later validates, publishes,
// and replicates. The log is a ring of 64-byte-aligned entries addressed by
// *logical* positions (monotonic byte offsets); physical placement wraps
// within the area and entries never straddle the wrap point (a kWrap marker
// pads to the end instead). A logical range may still cross the wrap point:
// Export and Import carry it in logical order and split it into at most two
// physical pieces themselves, so no caller has to cut ranges at the wrap.
//
// Durability protocol per append: payload bytes are written and persisted
// first, then the header (with magic + CRCs) is written and persisted as the
// commit record. A crash leaves a clean prefix (prefix crash consistency).

#ifndef SRC_FSLIB_OPLOG_H_
#define SRC_FSLIB_OPLOG_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/fslib/layout.h"
#include "src/fslib/types.h"
#include "src/pmem/region.h"
#include "src/sim/result.h"

namespace linefs::fslib {

enum class LogOpType : uint16_t {
  kInvalid = 0,
  kData = 1,      // File write: payload = data bytes at `offset`.
  kCreate = 2,    // payload = name; inum/parent/mode set.
  kMkdir = 3,     // payload = name.
  kUnlink = 4,    // payload = name; parent set.
  kRmdir = 5,     // payload = name.
  kRename = 6,    // payload = old_name '\0' new_name; parent/parent2 set.
  kTruncate = 7,  // offset = new size.
  kWrap = 8,      // Padding marker to the end of the ring.
};

inline constexpr uint32_t kLogEntryMagic = 0x4C4F4745;  // "LOGE"
inline constexpr uint16_t kLogFlagGhost = 1u << 0;      // Payload bytes elided (bench mode).

struct LogEntryHeader {
  uint32_t magic = 0;
  LogOpType type = LogOpType::kInvalid;
  uint16_t flags = 0;
  uint64_t seq = 0;     // Per-client monotonic sequence number.
  InodeNum inum = 0;    // Target inode.
  InodeNum parent = 0;  // Directory ops: parent inode. Rename: source parent.
  // Data: file offset. Truncate: new size. Rename: destination parent inode.
  uint64_t offset = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint16_t mode = kPermAll;
  FileType ftype = FileType::kNone;
  uint32_t client_id = 0;
  uint32_t reserved = 0;
  uint32_t header_crc = 0;  // CRC of all preceding header bytes.

  InodeNum rename_dst_parent() const { return offset; }

  uint32_t ComputeHeaderCrc() const {
    return Crc32c(this, offsetof(LogEntryHeader, header_crc));
  }
};
static_assert(sizeof(LogEntryHeader) == 64, "log entries are 64-byte aligned");

// One decoded log entry, as processed by validation, coalescing, and
// digestion. A materialised payload is a slice of the image it was parsed
// from, not a copy.
struct ParsedEntry {
  LogEntryHeader header;
  SharedBytes payload;
  uint64_t logical_pos = 0;  // Logical byte position of the header in the log.

  uint64_t TotalBytes() const { return AlignedSize(header.payload_len); }
  static uint64_t AlignedSize(uint32_t payload_len) {
    return (sizeof(LogEntryHeader) + payload_len + 63) / 64 * 64;
  }
};

// A client-log range on its way from one node's copy of the log to another's
// (§3.3, Fig. 3): the raw image when payloads are materialised, or only the
// parsed entry headers when they are elided. LogArea::Export produces one and
// LogArea::Import applies it, so no caller branches on the mode. The image
// is read out of PM once and then shared, never copied, by every stage and
// replica it reaches, and the log and public-area pages that hold its bytes
// on every node borrow it (pmem::Region). On the replication wire `image` may hold transformed
// (compressed or encrypted) bytes; ReplChunkMsg's flags say which.
struct LogRange {
  SharedBytes image;                 // Empty when payloads are elided.
  std::vector<ParsedEntry> headers;  // Filled only when payloads are elided.
};

// The private log of one LibFS client, backed by a slice of the node's PM.
class LogArea {
 public:
  // `materialize` controls whether payload bytes are really stored (tests)
  // or elided with time costs still charged (large benchmark sweeps). It is
  // also the copy-or-elide choice for every range exported from or imported
  // into this log.
  LogArea(pmem::Region* region, uint64_t base, uint64_t size, uint32_t client_id,
          bool materialize = true);

  // Appends one entry. Fails with kNoSpace when the ring cannot fit it until
  // publication reclaims space (head-of-line blocking; the caller decides how
  // to wait). `payload` may be empty.
  Result<uint64_t> Append(LogEntryHeader header, std::span<const uint8_t> payload);

  // True if an entry with `payload_len` fits right now.
  bool HasSpaceFor(uint32_t payload_len) const;

  // Advances the head (reclaim) pointer to logical position `up_to`.
  void Reclaim(uint64_t up_to);

  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }
  uint64_t used_bytes() const { return tail_ - head_; }
  uint64_t capacity() const { return size_ - kMetaBytes; }
  uint64_t next_seq() const { return next_seq_; }
  uint32_t client_id() const { return client_id_; }

  // Logical range [from, to) as it leaves this log (NIC fetch, replication,
  // retransmit): the raw image in logical order when payloads are
  // materialised, which the log's pages then share, else the parsed headers.
  // Fails only when an elided range's headers do not parse.
  Result<LogRange> Export(uint64_t from, uint64_t to) const;

  // Applies `range` at the logical position [from, to) it held in the origin's
  // log (log areas are position-synchronised along the replication chain),
  // persists it, and advances the tail to `to`. An image is stored by
  // reference: the log pages it wholly covers borrow it. Elided headers get their
  // payloads (namespace names) and the wrap markers between them written back,
  // so this copy scans and validates like the origin's.
  void Import(uint64_t from, uint64_t to, const LogRange& range);

  // Entries of a range for validation or publication: parsed out of `range`'s
  // image, or its headers when payloads are elided. `in_log` means the sender
  // wrote the image straight into this log instead of carrying it.
  Result<std::vector<ParsedEntry>> Entries(uint64_t from, uint64_t to, const LogRange& range,
                                           bool in_log = false) const;

  // Parses entries in logical range [from, to) directly from PM (host-side
  // digestion path used by the Assise baselines and by recovery). With
  // payloads materialised the range is read once and the payloads slice it.
  Result<std::vector<ParsedEntry>> ParseRange(uint64_t from, uint64_t to) const;

  // Largest logical position `end` in (from, from + max_bytes] such that
  // [from, end) holds whole entries and does not cross the wrap point.
  // Returns `from` if the log is empty at `from`.
  uint64_t ChunkEnd(uint64_t from, uint64_t max_bytes) const;

  // Region offset of the payload bytes of the entry at `logical_pos`.
  uint64_t PayloadPhys(uint64_t logical_pos) const {
    return Phys(logical_pos) + sizeof(LogEntryHeader);
  }

  // Writes the persistent log metadata (head pointer) and persists it.
  void PersistMeta();

  // Rebuilds head/tail/seq from PM after a crash: starts at the persisted
  // head and scans forward while entries are valid.
  Result<uint64_t> RecoverScan();

  // Parses entries out of a fetched raw chunk image (NIC-side view); their
  // payloads are slices of `image`.
  static Result<std::vector<ParsedEntry>> ParseChunkImage(const SharedBytes& image,
                                                          uint64_t base_logical);

 private:
  static constexpr uint64_t kMetaBytes = 64;  // Persistent head pointer record.

  struct MetaRecord {
    uint64_t magic = 0x4C4F474D45544131;  // "LOGMETA1"
    uint64_t head = 0;
    uint32_t client_id = 0;
    uint8_t pad[44] = {};
  };
  static_assert(sizeof(MetaRecord) == 64);

  // Writes and persists a wrap marker at `logical`, padding to the physical
  // end of the ring.
  void WriteWrapMarker(uint64_t logical, uint64_t seq);

  // The bytes of logical range [from, to) in logical order: shared with the
  // log's pages (Region::Share) unless the range crosses the wrap point,
  // then read once.
  SharedBytes Image(uint64_t from, uint64_t to) const;
  uint64_t Phys(uint64_t logical) const { return base_ + kMetaBytes + logical % capacity_; }
  uint64_t ToWrapBoundary(uint64_t logical) const {
    return capacity_ - logical % capacity_;  // Bytes until physical end.
  }
  // Calls copy(phys, offset, len) for each physical piece (at most two) of
  // the logical range [from, from + len), in logical order.
  template <typename Fn>
  void ForEachPiece(uint64_t from, uint64_t len, Fn copy) const {
    for (uint64_t done = 0; done < len;) {
      uint64_t piece = std::min(len - done, ToWrapBoundary(from + done));
      copy(Phys(from + done), done, piece);
      done += piece;
    }
  }

  pmem::Region* region_;
  uint64_t base_;
  uint64_t size_;
  uint64_t capacity_;
  uint32_t client_id_;
  bool materialize_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  uint64_t next_seq_ = 1;
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_OPLOG_H_
