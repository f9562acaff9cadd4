#include "src/fslib/dir.h"

#include <cstring>

namespace linefs::fslib {

Result<uint64_t> DirStore::SlotOffset(const Inode& dir_inode, uint64_t slot) const {
  uint64_t lblock = slot / kDirentsPerBlock;
  std::optional<Extent> extent = extents_->Lookup(dir_inode, lblock);
  if (!extent.has_value()) {
    return Status::Error(ErrorCode::kIo, "dirent block unmapped");
  }
  return (extent->pblock << kBlockShift) + (slot % kDirentsPerBlock) * sizeof(Dirent);
}

Status DirStore::WriteSlot(const Inode& dir_inode, uint64_t slot, const Dirent& entry) {
  Result<uint64_t> off = SlotOffset(dir_inode, slot);
  if (!off.ok()) {
    return off.status();
  }
  region_->WriteObjectDurable(*off, entry);
  return Status::Ok();
}

Result<DirStore::DirCache*> DirStore::LoadDir(InodeNum dir) {
  auto it = cache_.find(dir);
  if (it != cache_.end()) {
    return &it->second;
  }
  Result<Inode> inode = inodes_->Get(dir);
  if (!inode.ok()) {
    return inode.status();
  }
  if (inode->type != FileType::kDirectory) {
    return Status::Error(ErrorCode::kNotDir, "not a directory");
  }
  DirCache cache;
  cache.slot_count = (inode->size + sizeof(Dirent) - 1) / sizeof(Dirent);
  for (uint64_t slot = 0; slot < cache.slot_count; ++slot) {
    Result<uint64_t> off = SlotOffset(*inode, slot);
    if (!off.ok()) {
      return off.status();
    }
    Dirent entry = region_->ReadObject<Dirent>(*off);
    ++slots_scanned_;
    if (entry.inum == kInvalidInode) {
      cache.free_slots.push_back(slot);
    } else {
      cache.slots.emplace(std::string(entry.name, entry.name_len), slot);
    }
  }
  auto [pos, inserted] = cache_.emplace(dir, std::move(cache));
  (void)inserted;
  return &pos->second;
}

Result<InodeNum> DirStore::Lookup(InodeNum dir, std::string_view name) {
  Result<DirCache*> cache = LoadDir(dir);
  if (!cache.ok()) {
    return cache.status();
  }
  auto it = (*cache)->slots.find(std::string(name));
  if (it == (*cache)->slots.end()) {
    return Status::Error(ErrorCode::kNotFound, "no dirent: " + std::string(name));
  }
  Result<Inode> dir_inode = inodes_->Get(dir);
  if (!dir_inode.ok()) {
    return dir_inode.status();
  }
  Result<uint64_t> off = SlotOffset(*dir_inode, it->second);
  if (!off.ok()) {
    return off.status();
  }
  return region_->ReadObject<Dirent>(*off).inum;
}

Status DirStore::Add(InodeNum dir, std::string_view name, InodeNum child) {
  if (name.empty() || name.size() > kDirentNameMax) {
    return Status::Error(ErrorCode::kInvalid, "bad name length");
  }
  Result<DirCache*> cache_result = LoadDir(dir);
  if (!cache_result.ok()) {
    return cache_result.status();
  }
  DirCache* cache = *cache_result;
  if (cache->slots.contains(std::string(name))) {
    return Status::Error(ErrorCode::kExists, "dirent exists: " + std::string(name));
  }
  Result<Inode> dir_inode = inodes_->Get(dir);
  if (!dir_inode.ok()) {
    return dir_inode.status();
  }

  uint64_t slot;
  if (!cache->free_slots.empty()) {
    slot = cache->free_slots.back();
    cache->free_slots.pop_back();
  } else {
    // Extend the directory by one block (metadata: kept out of data runs).
    Result<uint64_t> block = allocator_->AllocFromTop();
    if (!block.ok()) {
      return block.status();
    }
    region_->FillDurable(*block << kBlockShift, 0, kBlockSize);
    uint64_t lblock = cache->slot_count / kDirentsPerBlock;
    Status st = extents_->InsertRange(&dir_inode.value(), lblock, 1, *block, nullptr);
    if (!st.ok()) {
      allocator_->Free(*block);
      return st;
    }
    slot = cache->slot_count;
    for (uint64_t s = cache->slot_count + 1; s < cache->slot_count + kDirentsPerBlock; ++s) {
      cache->free_slots.push_back(s);
    }
    cache->slot_count += kDirentsPerBlock;
    dir_inode->size = cache->slot_count * sizeof(Dirent);
    inodes_->Put(*dir_inode);
  }

  Dirent entry;
  entry.inum = child;
  entry.name_len = static_cast<uint8_t>(name.size());
  std::memcpy(entry.name, name.data(), name.size());
  Status st = WriteSlot(*dir_inode, slot, entry);
  if (!st.ok()) {
    cache->free_slots.push_back(slot);
    return st;
  }
  cache->slots.emplace(std::string(name), slot);
  return Status::Ok();
}

Status DirStore::Remove(InodeNum dir, std::string_view name) {
  Result<DirCache*> cache_result = LoadDir(dir);
  if (!cache_result.ok()) {
    return cache_result.status();
  }
  DirCache* cache = *cache_result;
  auto it = cache->slots.find(std::string(name));
  if (it == cache->slots.end()) {
    return Status::Error(ErrorCode::kNotFound, "no dirent: " + std::string(name));
  }
  Result<Inode> dir_inode = inodes_->Get(dir);
  if (!dir_inode.ok()) {
    return dir_inode.status();
  }
  uint64_t slot = it->second;
  Dirent empty;
  Status st = WriteSlot(*dir_inode, slot, empty);
  if (!st.ok()) {
    return st;
  }
  cache->slots.erase(it);
  cache->free_slots.push_back(slot);
  return Status::Ok();
}

Result<std::vector<std::pair<std::string, InodeNum>>> DirStore::List(InodeNum dir) {
  Result<DirCache*> cache_result = LoadDir(dir);
  if (!cache_result.ok()) {
    return cache_result.status();
  }
  Result<Inode> dir_inode = inodes_->Get(dir);
  if (!dir_inode.ok()) {
    return dir_inode.status();
  }
  std::vector<std::pair<std::string, InodeNum>> out;
  out.reserve((*cache_result)->slots.size());
  for (const auto& [name, slot] : (*cache_result)->slots) {
    Result<uint64_t> off = SlotOffset(*dir_inode, slot);
    if (!off.ok()) {
      return off.status();
    }
    out.emplace_back(name, region_->ReadObject<Dirent>(*off).inum);
  }
  return out;
}

Result<uint64_t> DirStore::Count(InodeNum dir) {
  Result<DirCache*> cache_result = LoadDir(dir);
  if (!cache_result.ok()) {
    return cache_result.status();
  }
  return static_cast<uint64_t>((*cache_result)->slots.size());
}

bool DirStore::IsSelfOrAncestor(InodeNum candidate, InodeNum node) const {
  InodeNum current = node;
  // Bounded walk to guard against (corrupt) parent cycles.
  for (int depth = 0; depth < 4096; ++depth) {
    if (current == candidate) {
      return true;
    }
    if (current == kRootInode || current == kInvalidInode) {
      return false;
    }
    Result<Inode> inode = inodes_->Get(current);
    if (!inode.ok()) {
      return false;
    }
    current = inode->parent;
  }
  return true;  // Conservatively treat an over-deep walk as a cycle.
}

}  // namespace linefs::fslib
