#include "src/fslib/oplog.h"

#include <algorithm>

#include "src/sim/check.h"

namespace linefs::fslib {

namespace {

// The first reservation for a range's parsed entries: one per KB of range,
// at most ~100 KB of entries. A larger first block lies above glibc's
// default mmap threshold (128 KB), and ranges differ in size, so each one
// would be mapped and faulted in afresh; the few ranges with more entries
// grow by doubling instead.
size_t EntriesToReserve(uint64_t range_bytes) {
  return static_cast<size_t>(std::min<uint64_t>(range_bytes / 1024 + 8, 1024));
}

}  // namespace

LogArea::LogArea(pmem::Region* region, uint64_t base, uint64_t size, uint32_t client_id,
                 bool materialize)
    : region_(region), base_(base), size_(size), capacity_(size - kMetaBytes),
      client_id_(client_id), materialize_(materialize) {}

bool LogArea::HasSpaceFor(uint32_t payload_len) const {
  uint64_t need = ParsedEntry::AlignedSize(payload_len);
  // A wrap marker may additionally consume the space to the physical end.
  uint64_t to_wrap = ToWrapBoundary(tail_);
  uint64_t worst = need + (to_wrap < need ? to_wrap : 0);
  return used_bytes() + worst <= capacity_;
}

Result<uint64_t> LogArea::Append(LogEntryHeader header, std::span<const uint8_t> payload) {
  // Payload elision applies only to data entries: namespace payloads (names)
  // are always materialised — publication needs them.
  bool materialize_payload = materialize_ || header.type != LogOpType::kData;
  LINEFS_CHECK(payload.size() == header.payload_len || !materialize_payload);
  uint64_t need = ParsedEntry::AlignedSize(header.payload_len);
  if (need > capacity_) {
    return Status::Error(ErrorCode::kInvalid, "entry larger than log");
  }
  if (!HasSpaceFor(header.payload_len)) {
    return Status::Error(ErrorCode::kNoSpace, "log full");
  }

  // Wrap if the entry would straddle the physical end of the ring.
  uint64_t to_wrap = ToWrapBoundary(tail_);
  if (to_wrap < need) {
    WriteWrapMarker(tail_, next_seq_);  // Not consumed: wrap markers share the next seq.
    tail_ += to_wrap;
  }

  header.magic = kLogEntryMagic;
  header.seq = next_seq_++;
  header.client_id = client_id_;
  uint64_t pos = tail_;
  uint64_t payload_phys = Phys(pos) + sizeof(LogEntryHeader);

  if (materialize_payload && !payload.empty()) {
    header.payload_crc = Crc32c(payload.data(), payload.size());
    region_->WriteDurable(payload_phys, payload.data(), payload.size());
  } else if (!materialize_payload) {
    header.flags |= kLogFlagGhost;
    header.payload_crc = 0;
  } else {
    header.payload_crc = 0;
  }

  header.header_crc = header.ComputeHeaderCrc();
  region_->WriteObjectDurable(Phys(pos), header);
  tail_ = pos + ParsedEntry::AlignedSize(header.payload_len);
  return pos;
}

void LogArea::WriteWrapMarker(uint64_t logical, uint64_t seq) {
  LogEntryHeader wrap;
  wrap.magic = kLogEntryMagic;
  wrap.type = LogOpType::kWrap;
  wrap.seq = seq;
  wrap.payload_len = static_cast<uint32_t>(ToWrapBoundary(logical) - sizeof(LogEntryHeader));
  wrap.client_id = client_id_;
  wrap.header_crc = wrap.ComputeHeaderCrc();
  region_->WriteObjectDurable(Phys(logical), wrap);
}

void LogArea::Reclaim(uint64_t up_to) {
  LINEFS_CHECK(up_to >= head_ && up_to <= tail_);
  head_ = up_to;
}

Result<LogRange> LogArea::Export(uint64_t from, uint64_t to) const {
  LINEFS_CHECK(to >= from);
  LogRange range;
  if (!materialize_) {
    Result<std::vector<ParsedEntry>> headers = ParseRange(from, to);
    if (!headers.ok()) {
      return headers.status();
    }
    range.headers = std::move(*headers);
    return range;
  }
  range.image = Image(from, to);
  return range;
}

SharedBytes LogArea::Image(uint64_t from, uint64_t to) const {
  if (to - from <= ToWrapBoundary(from)) {
    return region_->Share(Phys(from), to - from);
  }
  // Across the wrap point: two physical pieces, read into one image.
  return SharedBytes::Filled(to - from, [&](uint8_t* image) {
    ForEachPiece(from, to - from, [&](uint64_t phys, uint64_t offset, uint64_t len) {
      region_->Read(phys, image + offset, len);
    });
  });
}

void LogArea::Import(uint64_t from, uint64_t to, const LogRange& range) {
  if (!range.image.empty()) {
    ForEachPiece(from, range.image.size(), [&](uint64_t phys, uint64_t offset, uint64_t len) {
      region_->WriteDurable(phys, range.image.Slice(offset, len));
    });
  } else {
    // Elided payloads: mirror the headers, every payload the origin kept
    // (namespace names) and the wrap markers, which the headers skip: the
    // only gaps between entries.
    uint64_t pos = from;
    for (const ParsedEntry& entry : range.headers) {
      if (entry.logical_pos != pos) {
        LINEFS_CHECK(entry.logical_pos - pos == ToWrapBoundary(pos));
        WriteWrapMarker(pos, entry.header.seq);
      }
      uint64_t phys = Phys(entry.logical_pos);
      region_->WriteObjectDurable(phys, entry.header);
      if (!entry.payload.empty()) {
        region_->WriteDurable(phys + sizeof(LogEntryHeader), entry.payload.data(),
                              entry.payload.size());
      }
      pos = entry.logical_pos + ParsedEntry::AlignedSize(entry.header.payload_len);
      next_seq_ = std::max(next_seq_, entry.header.seq + 1);
    }
    if (pos != to) {
      LINEFS_CHECK(to - pos == ToWrapBoundary(pos));
      WriteWrapMarker(pos, next_seq_);
    }
  }
  tail_ = std::max(tail_, to);
}

Result<std::vector<ParsedEntry>> LogArea::Entries(uint64_t from, uint64_t to,
                                                  const LogRange& range, bool in_log) const {
  if (!materialize_) {
    return range.headers;
  }
  return in_log ? ParseRange(from, to) : ParseChunkImage(range.image, from);
}

void LogArea::PersistMeta() {
  MetaRecord meta;
  meta.head = head_;
  meta.client_id = client_id_;
  region_->WriteObjectDurable(base_, meta);
}

uint64_t LogArea::ChunkEnd(uint64_t from, uint64_t max_bytes) const {
  uint64_t end = from;
  uint64_t pos = from;
  while (pos < tail_) {
    LogEntryHeader header = region_->ReadObject<LogEntryHeader>(Phys(pos));
    if (header.magic != kLogEntryMagic) {
      break;
    }
    uint64_t entry_bytes = ParsedEntry::AlignedSize(header.payload_len);
    if (pos + entry_bytes - from > max_bytes && end != from) {
      break;
    }
    pos += entry_bytes;
    end = pos;
    // Stop at the wrap point: a NICFS chunk is one contiguous PCIe fetch.
    if (pos % capacity_ == 0) {
      break;
    }
    if (pos - from >= max_bytes) {
      break;
    }
  }
  return end;
}

Result<std::vector<ParsedEntry>> LogArea::ParseRange(uint64_t from, uint64_t to) const {
  if (materialize_) {
    return ParseChunkImage(Image(from, to), from);
  }
  // Elided payloads: read header by header, skipping the unwritten data.
  std::vector<ParsedEntry> entries;
  entries.reserve(EntriesToReserve(to - from));
  uint64_t pos = from;
  while (pos < to) {
    LogEntryHeader header = region_->ReadObject<LogEntryHeader>(Phys(pos));
    if (header.magic != kLogEntryMagic) {
      return Status::Error(ErrorCode::kCorrupt, "bad log magic");
    }
    if (header.ComputeHeaderCrc() != header.header_crc) {
      return Status::Error(ErrorCode::kCorrupt, "bad log header crc");
    }
    uint64_t entry_bytes = ParsedEntry::AlignedSize(header.payload_len);
    if (header.type != LogOpType::kWrap) {
      ParsedEntry entry;
      entry.header = header;
      entry.logical_pos = pos;
      if ((header.flags & kLogFlagGhost) == 0 && header.payload_len > 0) {
        entry.payload = SharedBytes::Filled(header.payload_len, [&](uint8_t* payload) {
          region_->Read(Phys(pos) + sizeof(LogEntryHeader), payload, header.payload_len);
        });
      }
      entries.push_back(std::move(entry));
    }
    pos += entry_bytes;
  }
  return entries;
}

Result<std::vector<ParsedEntry>> LogArea::ParseChunkImage(const SharedBytes& image,
                                                          uint64_t base_logical) {
  std::vector<ParsedEntry> entries;
  entries.reserve(EntriesToReserve(image.size()));
  uint64_t pos = 0;
  while (pos + sizeof(LogEntryHeader) <= image.size()) {
    LogEntryHeader header;
    std::memcpy(&header, image.data() + pos, sizeof(header));
    if (header.magic != kLogEntryMagic) {
      return Status::Error(ErrorCode::kCorrupt, "bad chunk magic");
    }
    if (header.ComputeHeaderCrc() != header.header_crc) {
      return Status::Error(ErrorCode::kCorrupt, "bad chunk header crc");
    }
    uint64_t entry_bytes = ParsedEntry::AlignedSize(header.payload_len);
    if (header.type != LogOpType::kWrap) {
      ParsedEntry entry;
      entry.header = header;
      entry.logical_pos = base_logical + pos;
      if ((header.flags & kLogFlagGhost) == 0 && header.payload_len > 0) {
        if (pos + sizeof(LogEntryHeader) + header.payload_len > image.size()) {
          return Status::Error(ErrorCode::kCorrupt, "truncated chunk payload");
        }
        entry.payload = image.Slice(pos + sizeof(LogEntryHeader), header.payload_len);
      }
      entries.push_back(std::move(entry));
    }
    pos += entry_bytes;
  }
  return entries;
}

Result<uint64_t> LogArea::RecoverScan() {
  MetaRecord meta = region_->ReadObject<MetaRecord>(base_);
  MetaRecord expected;
  if (meta.magic != expected.magic) {
    // Fresh log.
    head_ = tail_ = 0;
    next_seq_ = 1;
    return static_cast<uint64_t>(0);
  }
  head_ = meta.head;
  tail_ = head_;
  uint64_t last_seq = 0;
  uint64_t pos = head_;
  while (true) {
    if (ToWrapBoundary(pos) < sizeof(LogEntryHeader)) {
      break;
    }
    LogEntryHeader header = region_->ReadObject<LogEntryHeader>(Phys(pos));
    if (header.magic != kLogEntryMagic || header.ComputeHeaderCrc() != header.header_crc) {
      break;
    }
    if (header.type != LogOpType::kWrap) {
      if (last_seq != 0 && header.seq != last_seq + 1) {
        break;  // Stale entry from a previous lap.
      }
      // Verify payload integrity for committed entries.
      if ((header.flags & kLogFlagGhost) == 0 && header.payload_len > 0) {
        std::vector<uint8_t> payload(header.payload_len);
        region_->Read(Phys(pos) + sizeof(LogEntryHeader), payload.data(), header.payload_len);
        if (Crc32c(payload.data(), payload.size()) != header.payload_crc) {
          break;  // Torn write: header persisted but payload is not intact.
        }
      }
      last_seq = header.seq;
    }
    pos += ParsedEntry::AlignedSize(header.payload_len);
    tail_ = pos;
    if (pos - head_ >= capacity_) {
      break;
    }
  }
  next_seq_ = last_seq + 1;
  return tail_ - head_;
}

}  // namespace linefs::fslib
