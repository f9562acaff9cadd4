#include "src/fslib/extent.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>

namespace linefs::fslib {

void ExtentList::LoadChain(uint64_t root, std::vector<Extent>* extents,
                           std::vector<uint64_t>* blocks) const {
  uint64_t block = root;
  while (block != 0) {
    uint64_t off = block << kBlockShift;
    NodeHeader header = region_->ReadObject<NodeHeader>(off);
    assert(header.magic == kNodeMagic);
    assert(header.next == 0 || header.count == kEntriesPerBlock);
    if (blocks != nullptr) {
      blocks->push_back(block);
    }
    // Bulk-read the block's entries in one go: Load sits on the read and
    // publish fast paths, and per-entry 24B reads dominate its cost.
    size_t base = extents->size();
    extents->resize(base + header.count);
    if (header.count > 0) {
      region_->Read(off + sizeof(NodeHeader), extents->data() + base,
                    header.count * sizeof(Extent));
    }
    block = header.next;
  }
}

std::vector<Extent> ExtentList::Load(const Inode& inode) const {
  std::vector<Extent> extents;
  LoadChain(inode.extent_root, &extents, nullptr);
  return extents;
}

std::vector<uint64_t> ExtentList::ChainBlocks(const Inode& inode) const {
  std::vector<Extent> extents;
  std::vector<uint64_t> blocks;
  LoadChain(inode.extent_root, &extents, &blocks);
  return blocks;
}

Result<uint64_t> ExtentList::WriteBlocks(const Extent* extents, size_t n) {
  uint64_t blocks_needed = (n + kEntriesPerBlock - 1) / kEntriesPerBlock;
  std::vector<uint64_t> chain;
  chain.reserve(blocks_needed);
  for (uint64_t i = 0; i < blocks_needed; ++i) {
    Result<uint64_t> block = allocator_->AllocFromTop();
    if (!block.ok()) {
      for (uint64_t b : chain) {
        allocator_->Free(b);
      }
      return block.status();
    }
    chain.push_back(*block);
  }
  size_t idx = 0;
  for (uint64_t i = 0; i < blocks_needed; ++i) {
    uint64_t off = chain[i] << kBlockShift;
    NodeHeader header;
    header.count = static_cast<uint32_t>(std::min<size_t>(kEntriesPerBlock, n - idx));
    header.next = i + 1 < blocks_needed ? chain[i + 1] : 0;
    // One contiguous image per chain block: a single undo record and persist
    // instead of count+1 of each.
    alignas(8) uint8_t image[kBlockSize];
    std::memcpy(image, &header, sizeof(header));
    std::memcpy(image + sizeof(header), extents + idx, header.count * sizeof(Extent));
    uint64_t len = sizeof(NodeHeader) + header.count * sizeof(Extent);
    region_->Write(off, image, len);
    region_->Persist(off, len);
    idx += header.count;
  }
  return chain.empty() ? uint64_t{0} : chain[0];
}

Status ExtentList::Update(Inode* inode, const std::vector<Extent>& old,
                          const std::vector<uint64_t>& blocks,
                          const std::vector<Extent>& updated) {
  size_t same = 0;  // Length of the unchanged prefix.
  while (same < old.size() && same < updated.size() && old[same] == updated[same]) {
    ++same;
  }
  if (same == old.size() && same == updated.size()) {
    return Status::Ok();
  }
  if (!blocks.empty()) {
    uint64_t tail_off = blocks.back() << kBlockShift;
    // Entry i of the tail block sits at tail_entries + (i - tail_first) * 24.
    uint64_t tail_entries = tail_off + sizeof(NodeHeader);
    size_t tail_first = (blocks.size() - 1) * kEntriesPerBlock;
    if (same == old.size() && updated.size() <= tail_first + kEntriesPerBlock) {
      // Append into the tail's free slots; bumping the count publishes them.
      uint64_t off = tail_entries + (same - tail_first) * sizeof(Extent);
      uint64_t len = (updated.size() - same) * sizeof(Extent);
      region_->Write(off, updated.data() + same, len);
      region_->Persist(off, len);
      uint32_t count = static_cast<uint32_t>(updated.size() - tail_first);
      uint64_t count_off = tail_off + offsetof(NodeHeader, count);
      region_->WriteObject(count_off, count);
      region_->Persist(count_off, sizeof(count));
      return Status::Ok();
    }
    if (same + 1 == old.size() && updated.size() == old.size() &&
        updated[same].lblock == old[same].lblock && updated[same].pblock == old[same].pblock) {
      // Only the last run's length changed.
      uint64_t off = tail_entries + (same - tail_first) * sizeof(Extent) + offsetof(Extent, count);
      region_->WriteObject(off, updated[same].count);
      region_->Persist(off, sizeof(uint64_t));
      return Status::Ok();
    }
  }
  // Keep the leading full blocks that hold no changed entry; write the rest
  // into fresh blocks and link them in with one pointer update.
  size_t kept = same / kEntriesPerBlock;
  size_t first = kept * kEntriesPerBlock;
  Result<uint64_t> head = WriteBlocks(updated.data() + first, updated.size() - first);
  if (!head.ok()) {
    return head.status();
  }
  if (kept == 0) {
    inode->extent_root = *head;
  } else {
    uint64_t next_off = (blocks[kept - 1] << kBlockShift) + offsetof(NodeHeader, next);
    region_->WriteObject(next_off, *head);
    region_->Persist(next_off, sizeof(uint64_t));
  }
  for (size_t i = kept; i < blocks.size(); ++i) {
    allocator_->Free(blocks[i]);
  }
  return Status::Ok();
}

std::optional<Extent> ExtentList::LookupIn(const std::vector<Extent>& extents, uint64_t lblock) {
  // Binary search for the last extent with lblock <= target.
  auto it = std::upper_bound(extents.begin(), extents.end(), lblock,
                             [](uint64_t v, const Extent& e) { return v < e.lblock; });
  if (it == extents.begin()) {
    return std::nullopt;
  }
  --it;
  if (lblock >= it->lblock && lblock < it->lblock + it->count) {
    Extent clipped;
    uint64_t delta = lblock - it->lblock;
    clipped.lblock = lblock;
    clipped.count = it->count - delta;
    clipped.pblock = it->pblock + delta;
    return clipped;
  }
  return std::nullopt;
}

std::optional<Extent> ExtentList::Lookup(const Inode& inode, uint64_t lblock) const {
  return LookupIn(Load(inode), lblock);
}

void ExtentList::InsertInto(std::vector<Extent>* extents, uint64_t lblock, uint64_t count,
                            uint64_t pblock, std::vector<Extent>* freed) {
  uint64_t lend = lblock + count;
  std::vector<Extent> result;
  result.reserve(extents->size() + 2);
  for (const Extent& e : *extents) {
    uint64_t e_end = e.lblock + e.count;
    if (e_end <= lblock || e.lblock >= lend) {
      result.push_back(e);  // No overlap.
      continue;
    }
    // Left remainder survives.
    if (e.lblock < lblock) {
      result.push_back(Extent{e.lblock, lblock - e.lblock, e.pblock});
    }
    // Overlapped middle is replaced: report freed physical blocks.
    if (freed != nullptr) {
      uint64_t ov_start = std::max(e.lblock, lblock);
      uint64_t ov_end = std::min(e_end, lend);
      freed->push_back(
          Extent{ov_start, ov_end - ov_start, e.pblock + (ov_start - e.lblock)});
    }
    // Right remainder survives.
    if (e_end > lend) {
      result.push_back(Extent{lend, e_end - lend, e.pblock + (lend - e.lblock)});
    }
  }
  // Insert the new run in sorted position, merging with adjacent runs when
  // both logical and physical blocks are contiguous.
  Extent fresh{lblock, count, pblock};
  auto pos = std::lower_bound(result.begin(), result.end(), fresh.lblock,
                              [](const Extent& e, uint64_t v) { return e.lblock < v; });
  pos = result.insert(pos, fresh);
  // Merge with predecessor.
  if (pos != result.begin()) {
    auto prev = pos - 1;
    if (prev->lblock + prev->count == pos->lblock && prev->pblock + prev->count == pos->pblock) {
      prev->count += pos->count;
      pos = result.erase(pos) - 1;
    }
  }
  // Merge with successor.
  if (pos + 1 != result.end()) {
    auto next = pos + 1;
    if (pos->lblock + pos->count == next->lblock && pos->pblock + pos->count == next->pblock) {
      pos->count += next->count;
      result.erase(next);
    }
  }
  *extents = std::move(result);
}

Status ExtentList::InsertRange(Inode* inode, uint64_t lblock, uint64_t count, uint64_t pblock,
                               std::vector<Extent>* freed) {
  std::vector<Extent> extents;
  std::vector<uint64_t> blocks;
  LoadChain(inode->extent_root, &extents, &blocks);
  std::vector<Extent> updated = extents;
  InsertInto(&updated, lblock, count, pblock, freed);
  return Update(inode, extents, blocks, updated);
}

Status ExtentList::TruncateTo(Inode* inode, uint64_t first_removed_lblock,
                              std::vector<Extent>* freed) {
  std::vector<Extent> extents;
  std::vector<uint64_t> blocks;
  LoadChain(inode->extent_root, &extents, &blocks);
  std::vector<Extent> kept;
  for (const Extent& e : extents) {
    uint64_t e_end = e.lblock + e.count;
    if (e_end <= first_removed_lblock) {
      kept.push_back(e);
    } else if (e.lblock < first_removed_lblock) {
      uint64_t keep = first_removed_lblock - e.lblock;
      kept.push_back(Extent{e.lblock, keep, e.pblock});
      if (freed != nullptr) {
        freed->push_back(Extent{first_removed_lblock, e.count - keep, e.pblock + keep});
      }
    } else if (freed != nullptr) {
      freed->push_back(e);
    }
  }
  return Update(inode, extents, blocks, kept);
}

Status ExtentList::Destroy(Inode* inode) {
  std::vector<Extent> extents;
  std::vector<uint64_t> blocks;
  LoadChain(inode->extent_root, &extents, &blocks);
  for (const Extent& e : extents) {
    allocator_->Free(e.pblock, e.count);
  }
  for (uint64_t block : blocks) {
    allocator_->Free(block);
  }
  inode->extent_root = 0;
  return Status::Ok();
}

}  // namespace linefs::fslib
