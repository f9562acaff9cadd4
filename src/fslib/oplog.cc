#include "src/fslib/oplog.h"

#include <algorithm>
#include <cassert>

namespace linefs::fslib {

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
  assert(payload.size() == header.payload_len || !materialize_payload);
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
    LogEntryHeader wrap;
    wrap.magic = kLogEntryMagic;
    wrap.type = LogOpType::kWrap;
    wrap.seq = next_seq_;  // Not consumed: wrap markers share the next seq.
    wrap.payload_len = static_cast<uint32_t>(to_wrap - sizeof(LogEntryHeader));
    wrap.client_id = client_id_;
    wrap.header_crc = wrap.ComputeHeaderCrc();
    region_->WriteObject(Phys(tail_), wrap);
    region_->Persist(Phys(tail_), sizeof(LogEntryHeader));
    tail_ += to_wrap;
  }

  header.magic = kLogEntryMagic;
  header.seq = next_seq_++;
  header.client_id = client_id_;
  uint64_t pos = tail_;
  uint64_t payload_phys = Phys(pos) + sizeof(LogEntryHeader);

  if (materialize_payload && !payload.empty()) {
    header.payload_crc = Crc32c(payload.data(), payload.size());
    region_->Write(payload_phys, payload.data(), payload.size());
    region_->Persist(payload_phys, payload.size());
  } else if (!materialize_payload) {
    header.flags |= kLogFlagGhost;
    header.payload_crc = 0;
  } else {
    header.payload_crc = 0;
  }

  header.header_crc = header.ComputeHeaderCrc();
  region_->WriteObject(Phys(pos), header);
  region_->Persist(Phys(pos), sizeof(LogEntryHeader));
  tail_ = pos + ParsedEntry::AlignedSize(header.payload_len);
  return pos;
}

void LogArea::Reclaim(uint64_t up_to) {
  assert(up_to >= head_ && up_to <= tail_);
  head_ = up_to;
}

Result<LogRange> LogArea::Export(uint64_t from, uint64_t to) const {
  assert(to >= from);
  LogRange range;
  if (!materialize_) {
    Result<std::vector<ParsedEntry>> headers = ParseRange(from, to);
    if (!headers.ok()) {
      return headers.status();
    }
    range.headers = std::move(*headers);
    return range;
  }
  range.image.resize(to - from);
  ForEachPiece(from, to - from, [&](uint64_t phys, uint64_t offset, uint64_t len) {
    region_->Read(phys, range.image.data() + offset, len);
  });
  return range;
}

void LogArea::Import(uint64_t from, uint64_t to, const LogRange& range) {
  if (!range.image.empty()) {
    ForEachPiece(from, range.image.size(), [&](uint64_t phys, uint64_t offset, uint64_t len) {
      region_->Write(phys, range.image.data() + offset, len);
      region_->Persist(phys, len);
    });
  } else {
    // Elided payloads: mirror just the headers, so this copy of the log stays
    // scannable.
    for (const ParsedEntry& entry : range.headers) {
      region_->WriteObject(Phys(entry.logical_pos), entry.header);
      region_->Persist(Phys(entry.logical_pos), sizeof(LogEntryHeader));
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
  region_->WriteObject(base_, meta);
  region_->Persist(base_, sizeof(MetaRecord));
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
  std::vector<ParsedEntry> entries;
  // Entries are at least a header (64B) apart; most ranges are a handful of
  // small writes, so a modest reserve kills nearly all growth reallocations.
  entries.reserve(std::min<uint64_t>((to - from) / 1024 + 8, 16384));
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
        entry.payload.resize(header.payload_len);
        region_->Read(Phys(pos) + sizeof(LogEntryHeader), entry.payload.data(),
                      header.payload_len);
      }
      entries.push_back(std::move(entry));
    }
    pos += entry_bytes;
  }
  return entries;
}

Result<std::vector<ParsedEntry>> LogArea::ParseChunkImage(std::span<const uint8_t> image,
                                                          uint64_t base_logical) {
  std::vector<ParsedEntry> entries;
  entries.reserve(std::min<uint64_t>(image.size() / 1024 + 8, 16384));
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
        entry.payload.assign(image.begin() + pos + sizeof(LogEntryHeader),
                             image.begin() + pos + sizeof(LogEntryHeader) + header.payload_len);
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
