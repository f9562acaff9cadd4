#include "src/fslib/index.h"

#include <algorithm>

namespace linefs::fslib {

PrivateIndex::InodeState& PrivateIndex::Touch(InodeNum inum, uint64_t logical_pos,
                                               uint64_t first_block, uint64_t nblocks) {
  InodeState& state = inodes_[inum];
  state.last_pos = logical_pos;
  inode_log_.push_back(InodeRef{logical_pos, inum, first_block, nblocks});
  return state;
}

void PrivateIndex::SetName(const NameKey& key, NameEntry entry) {
  name_log_.push_back(NameRef{entry.logical_pos, key});
  names_[key] = entry;
}

void PrivateIndex::OnData(InodeNum inum, uint64_t file_offset, uint32_t len, uint64_t seq,
                          uint64_t logical_pos) {
  uint64_t first = file_offset >> kBlockShift;
  uint64_t last = (file_offset + len - 1) >> kBlockShift;
  InodeState& state = Touch(inum, logical_pos, first, last - first + 1);
  Overlay overlay{seq, logical_pos, file_offset, len};
  for (uint64_t b = first; b <= last; ++b) {
    auto [it, inserted] = state.blocks.try_emplace(b, BlockOverlays{overlay, {}});
    if (!inserted) {
      it->second.newer.push_back(overlay);
    }
  }
  uint64_t end = file_offset + len;
  if (!state.pending_size.has_value() || *state.pending_size < end) {
    state.pending_size = end;
  }
}

void PrivateIndex::OnCreate(InodeNum parent, const std::string& name, InodeNum inum,
                            FileType type, uint64_t logical_pos) {
  SetName(NameKey{parent, name}, NameEntry{NameState::kExists, inum, logical_pos});
  InodeState& state = Touch(inum, logical_pos);
  state.pending_type = type;
  state.pending_size = 0;
  state.size_exact = true;
  state.deleted = false;
}

void PrivateIndex::OnUnlink(InodeNum parent, const std::string& name, InodeNum inum,
                            uint64_t logical_pos) {
  SetName(NameKey{parent, name}, NameEntry{NameState::kDeleted, kInvalidInode, logical_pos});
  InodeState& state = Touch(inum, logical_pos);
  state.deleted = true;
  state.blocks.clear();
}

void PrivateIndex::OnRename(InodeNum src_parent, const std::string& old_name,
                            InodeNum dst_parent, const std::string& new_name, InodeNum inum,
                            uint64_t logical_pos) {
  SetName(NameKey{src_parent, old_name},
          NameEntry{NameState::kDeleted, kInvalidInode, logical_pos});
  SetName(NameKey{dst_parent, new_name}, NameEntry{NameState::kExists, inum, logical_pos});
  Touch(inum, logical_pos);
}

void PrivateIndex::OnTruncate(InodeNum inum, uint64_t new_size, uint64_t logical_pos) {
  InodeState& state = Touch(inum, logical_pos);
  state.pending_size = new_size;
  state.size_exact = true;
  // Drop overlays entirely beyond the new end.
  uint64_t keep_blocks = BlocksFor(new_size);
  std::erase_if(state.blocks, [&](const auto& block) { return block.first >= keep_blocks; });
}

std::vector<PrivateIndex::Overlay> PrivateIndex::LookupRange(InodeNum inum, uint64_t offset,
                                                             uint64_t len) const {
  std::vector<Overlay> result;
  auto it = inodes_.find(inum);
  if (it == inodes_.end() || len == 0) {
    return result;
  }
  const InodeState& state = it->second;
  uint64_t first = offset >> kBlockShift;
  uint64_t last = (offset + len - 1) >> kBlockShift;
  for (uint64_t b = first; b <= last; ++b) {
    auto bit = state.blocks.find(b);
    if (bit == state.blocks.end()) {
      continue;
    }
    const BlockOverlays& overlays = bit->second;
    for (size_t i = 0; i < overlays.size(); ++i) {
      const Overlay& o = overlays[i];
      if (o.file_offset < offset + len && o.file_offset + o.len > offset) {
        result.push_back(o);
      }
    }
  }
  // Sort by seq and dedupe (an overlay spanning blocks appears once per block).
  std::sort(result.begin(), result.end(), [](const Overlay& a, const Overlay& b) {
    return a.seq < b.seq;
  });
  result.erase(std::unique(result.begin(), result.end(),
                           [](const Overlay& a, const Overlay& b) { return a.seq == b.seq; }),
               result.end());
  return result;
}

std::pair<PrivateIndex::NameState, InodeNum> PrivateIndex::LookupName(
    InodeNum parent, const std::string& name) const {
  auto it = names_.find(NameKey{parent, name});
  if (it == names_.end()) {
    return {NameState::kUnknown, kInvalidInode};
  }
  return {it->second.state, it->second.inum};
}

std::optional<uint64_t> PrivateIndex::PendingSize(InodeNum inum) const {
  auto it = inodes_.find(inum);
  if (it == inodes_.end()) {
    return std::nullopt;
  }
  return it->second.pending_size;
}

std::pair<std::optional<uint64_t>, bool> PrivateIndex::PendingSizeInfo(InodeNum inum) const {
  auto it = inodes_.find(inum);
  if (it == inodes_.end()) {
    return {std::nullopt, false};
  }
  return {it->second.pending_size, it->second.size_exact};
}

std::vector<std::pair<std::string, bool>> PrivateIndex::PendingNames(InodeNum dir) const {
  std::vector<std::pair<std::string, bool>> result;
  for (const auto& [key, entry] : names_) {
    if (key.parent == dir && entry.state != NameState::kUnknown) {
      result.emplace_back(key.name, entry.state == NameState::kExists);
    }
  }
  return result;
}

std::optional<FileType> PrivateIndex::PendingType(InodeNum inum) const {
  auto it = inodes_.find(inum);
  if (it == inodes_.end()) {
    return std::nullopt;
  }
  return it->second.pending_type;
}

bool PrivateIndex::PendingDeleted(InodeNum inum) const {
  auto it = inodes_.find(inum);
  return it != inodes_.end() && it->second.deleted;
}

void PrivateIndex::DropPublished(uint64_t published_upto) {
  // Reclaim is driven by the append-ordered ref logs: logical positions are
  // monotone, so exactly the refs below `published_upto` sit at their fronts
  // and the rest of the index is never visited.
  while (!inode_log_.empty() && inode_log_.front().logical_pos < published_upto) {
    InodeRef ref = inode_log_.front();
    inode_log_.pop_front();
    auto it = inodes_.find(ref.inum);
    if (it == inodes_.end()) {
      continue;
    }
    InodeState& state = it->second;
    for (uint64_t b = ref.first_block; b < ref.first_block + ref.nblocks; ++b) {
      auto bit = state.blocks.find(b);
      if (bit == state.blocks.end()) {
        continue;
      }
      // Published overlays form a prefix of the block's (log-ordered) list.
      BlockOverlays& overlays = bit->second;
      size_t drop = 0;
      while (drop < overlays.size() && overlays[drop].logical_pos < published_upto) {
        ++drop;
      }
      if (drop == overlays.size()) {
        state.blocks.erase(bit);
      } else if (drop > 0) {
        overlays.oldest = overlays.newer[drop - 1];
        overlays.newer.erase(overlays.newer.begin(),
                             overlays.newer.begin() + static_cast<ptrdiff_t>(drop));
      }
    }
    if (state.last_pos < published_upto) {
      // Everything this inode's entries set is now in the public area.
      if (state.blocks.empty()) {
        inodes_.erase(it);
      } else {
        state.pending_size.reset();
        state.size_exact = false;
        state.pending_type.reset();
        state.deleted = false;
      }
    }
  }
  while (!name_log_.empty() && name_log_.front().logical_pos < published_upto) {
    auto it = names_.find(name_log_.front().key);
    if (it != names_.end() && it->second.logical_pos < published_upto) {
      names_.erase(it);
    }
    name_log_.pop_front();
  }
}

}  // namespace linefs::fslib
