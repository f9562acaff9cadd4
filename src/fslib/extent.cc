#include "src/fslib/extent.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "src/sim/check.h"

namespace linefs::fslib {

void ExtentList::LoadChain(Mirror* mirror) const {
  ++chain_loads_;
  mirror->extents.clear();
  mirror->blocks.clear();
  for (uint64_t block = mirror->root; block != 0;) {
    uint64_t off = block << kBlockShift;
    NodeHeader header = region_->ReadObject<NodeHeader>(off);
    LINEFS_CHECK(header.magic == kNodeMagic);
    LINEFS_CHECK(header.next == 0 || header.count == kEntriesPerBlock);
    mirror->blocks.push_back(block);
    // Bulk-read the block's entries in one go.
    size_t base = mirror->extents.size();
    mirror->extents.resize(base + header.count);
    if (header.count > 0) {
      region_->Read(off + sizeof(NodeHeader), mirror->extents.data() + base,
                    header.count * sizeof(Extent));
    }
    block = header.next;
  }
}

ExtentList::Mirror& ExtentList::MirrorOf(const Inode& inode) const {
  if (mirrored_crash_count_ != region_->crash_count()) {
    // The crash rolled back unpersisted chain writes under the mirrors.
    mirrors_.clear();
    mirrored_crash_count_ = region_->crash_count();
  }
  auto [it, inserted] = mirrors_.try_emplace(inode.inum);
  Mirror& mirror = it->second;
  if (inserted || mirror.root != inode.extent_root) {
    mirror.root = inode.extent_root;
    LoadChain(&mirror);
  }
  return mirror;
}

const std::vector<Extent>& ExtentList::Load(const Inode& inode) const {
  return MirrorOf(inode).extents;
}

const std::vector<uint64_t>& ExtentList::ChainBlocks(const Inode& inode) const {
  return MirrorOf(inode).blocks;
}

Result<uint64_t> ExtentList::WriteBlocks(const Extent* extents, size_t n,
                                         std::vector<uint64_t>* chain) {
  uint64_t blocks_needed = (n + kEntriesPerBlock - 1) / kEntriesPerBlock;
  size_t first = chain->size();
  for (uint64_t i = 0; i < blocks_needed; ++i) {
    Result<uint64_t> block = allocator_->AllocFromTop();
    if (!block.ok()) {
      for (size_t b = first; b < chain->size(); ++b) {
        allocator_->Free((*chain)[b]);
      }
      chain->resize(first);
      return block.status();
    }
    chain->push_back(*block);
  }
  const uint64_t* fresh = chain->data() + first;
  size_t idx = 0;
  for (uint64_t i = 0; i < blocks_needed; ++i) {
    uint64_t off = fresh[i] << kBlockShift;
    NodeHeader header;
    header.count = static_cast<uint32_t>(std::min<size_t>(kEntriesPerBlock, n - idx));
    header.next = i + 1 < blocks_needed ? fresh[i + 1] : 0;
    // One contiguous image per chain block: a single undo record and persist
    // instead of count+1 of each.
    alignas(8) uint8_t image[kBlockSize];
    std::memcpy(image, &header, sizeof(header));
    std::memcpy(image + sizeof(header), extents + idx, header.count * sizeof(Extent));
    uint64_t len = sizeof(NodeHeader) + header.count * sizeof(Extent);
    region_->WriteDurable(off, image, len);
    idx += header.count;
  }
  return blocks_needed == 0 ? uint64_t{0} : fresh[0];
}

Status ExtentList::Update(Inode* inode, Mirror* mirror, size_t first,
                          const std::vector<Extent>& old_suffix) {
  const std::vector<Extent>& updated = mirror->extents;
  std::vector<uint64_t>& blocks = mirror->blocks;
  size_t old_size = first + old_suffix.size();
  // The edit may rewrite entries with equal values: extend the unchanged
  // prefix past `first` over them.
  size_t same = first;
  while (same < old_size && same < updated.size() && old_suffix[same - first] == updated[same]) {
    ++same;
  }
  if (same == old_size && same == updated.size()) {
    return Status::Ok();
  }
  if (!blocks.empty()) {
    uint64_t tail_off = blocks.back() << kBlockShift;
    // Entry i of the tail block sits at tail_entries + (i - tail_first) * 24.
    uint64_t tail_entries = tail_off + sizeof(NodeHeader);
    size_t tail_first = (blocks.size() - 1) * kEntriesPerBlock;
    if (same == old_size && updated.size() <= tail_first + kEntriesPerBlock) {
      // Append into the tail's free slots; bumping the count publishes them.
      uint64_t off = tail_entries + (same - tail_first) * sizeof(Extent);
      uint64_t len = (updated.size() - same) * sizeof(Extent);
      region_->WriteDurable(off, updated.data() + same, len);
      uint32_t count = static_cast<uint32_t>(updated.size() - tail_first);
      uint64_t count_off = tail_off + offsetof(NodeHeader, count);
      region_->WriteObjectDurable(count_off, count);
      return Status::Ok();
    }
    if (same + 1 == old_size && updated.size() == old_size &&
        updated[same].lblock == old_suffix.back().lblock &&
        updated[same].pblock == old_suffix.back().pblock) {
      // Only the last run's length changed.
      uint64_t off = tail_entries + (same - tail_first) * sizeof(Extent) + offsetof(Extent, count);
      region_->WriteObjectDurable(off, updated[same].count);
      return Status::Ok();
    }
  }
  // Keep the leading full blocks that hold no changed entry; write the rest
  // into fresh blocks and link them in with one pointer update.
  size_t kept = same / kEntriesPerBlock;
  size_t first_rewritten = kept * kEntriesPerBlock;
  size_t old_blocks = blocks.size();
  Result<uint64_t> head =
      WriteBlocks(updated.data() + first_rewritten, updated.size() - first_rewritten, &blocks);
  if (!head.ok()) {
    // PM still holds the old chain: reload it on the next use.
    mirrors_.erase(inode->inum);
    return head.status();
  }
  if (kept == 0) {
    inode->extent_root = *head;
    mirror->root = *head;
  } else {
    uint64_t next_off = (blocks[kept - 1] << kBlockShift) + offsetof(NodeHeader, next);
    region_->WriteObjectDurable(next_off, *head);
  }
  for (size_t i = kept; i < old_blocks; ++i) {
    allocator_->Free(blocks[i]);
  }
  blocks.erase(blocks.begin() + static_cast<ptrdiff_t>(kept),
               blocks.begin() + static_cast<ptrdiff_t>(old_blocks));
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
  return LookupIn(MirrorOf(inode).extents, lblock);
}

namespace {

// `b` continues `a` both logically and physically.
bool Contiguous(const Extent& a, const Extent& b) {
  return a.lblock + a.count == b.lblock && a.pblock + a.count == b.pblock;
}

}  // namespace

Status ExtentList::InsertRange(Inode* inode, uint64_t lblock, uint64_t count, uint64_t pblock,
                               std::vector<Extent>* freed) {
  Mirror& mirror = MirrorOf(*inode);
  std::vector<Extent>& extents = mirror.extents;
  uint64_t lend = lblock + count;
  // Runs [start, stop) overlap the new one. Runs are sorted and disjoint, so
  // their ends are sorted too.
  size_t start = extents.size();
  size_t stop = extents.size();
  if (!extents.empty() && extents.back().lblock + extents.back().count > lblock) {
    auto lo = std::partition_point(extents.begin(), extents.end(), [&](const Extent& e) {
      return e.lblock + e.count <= lblock;
    });
    auto hi = std::partition_point(lo, extents.end(),
                                   [&](const Extent& e) { return e.lblock < lend; });
    start = static_cast<size_t>(lo - extents.begin());
    stop = static_cast<size_t>(hi - extents.begin());
  }
  if (freed != nullptr) {
    for (size_t i = start; i < stop; ++i) {
      const Extent& e = extents[i];
      uint64_t ov_start = std::max(e.lblock, lblock);
      uint64_t ov_end = std::min(e.lblock + e.count, lend);
      freed->push_back(Extent{ov_start, ov_end - ov_start, e.pblock + (ov_start - e.lblock)});
    }
  }
  // The replacement for [start, stop): the left remainder of the first
  // overlapped run, the new run, the right remainder of the last.
  Extent repl[3];
  size_t n = 0;
  if (start < stop && extents[start].lblock < lblock) {
    const Extent& left = extents[start];
    repl[n++] = Extent{left.lblock, lblock - left.lblock, left.pblock};
  }
  size_t fresh = n;
  repl[n++] = Extent{lblock, count, pblock};
  if (start < stop && extents[stop - 1].lblock + extents[stop - 1].count > lend) {
    const Extent& right = extents[stop - 1];
    uint64_t shift = lend - right.lblock;
    repl[n++] = Extent{lend, right.count - shift, right.pblock + shift};
  }
  // Merge the new run with its predecessor, then with its successor, when
  // both are contiguous.
  if (fresh > 0) {
    if (Contiguous(repl[fresh - 1], repl[fresh])) {
      repl[fresh - 1].count += repl[fresh].count;
      std::copy(repl + fresh + 1, repl + n, repl + fresh);
      --fresh;
      --n;
    }
  } else if (start > 0 && Contiguous(extents[start - 1], repl[0])) {
    --start;
    repl[0] = Extent{extents[start].lblock, extents[start].count + count, extents[start].pblock};
  }
  if (fresh + 1 < n) {
    if (Contiguous(repl[fresh], repl[fresh + 1])) {
      repl[fresh].count += repl[fresh + 1].count;
      --n;
    }
  } else if (stop < extents.size() && Contiguous(repl[fresh], extents[stop])) {
    repl[fresh].count += extents[stop].count;
    ++stop;
  }
  // Splice the replacement over [start, stop).
  old_suffix_.assign(extents.begin() + static_cast<ptrdiff_t>(start), extents.end());
  auto at = extents.begin() + static_cast<ptrdiff_t>(start);
  size_t replaced = stop - start;
  if (n > replaced) {
    at = extents.insert(at + static_cast<ptrdiff_t>(replaced), n - replaced, Extent{}) -
         static_cast<ptrdiff_t>(replaced);
  } else {
    extents.erase(at + static_cast<ptrdiff_t>(n), at + static_cast<ptrdiff_t>(replaced));
  }
  std::copy(repl, repl + n, at);
  return Update(inode, &mirror, start, old_suffix_);
}

Status ExtentList::TruncateTo(Inode* inode, uint64_t first_removed_lblock,
                              std::vector<Extent>* freed) {
  Mirror& mirror = MirrorOf(*inode);
  std::vector<Extent>& extents = mirror.extents;
  // The first run reaching past the cut.
  auto cut = std::partition_point(extents.begin(), extents.end(), [&](const Extent& e) {
    return e.lblock + e.count <= first_removed_lblock;
  });
  size_t start = static_cast<size_t>(cut - extents.begin());
  old_suffix_.assign(cut, extents.end());
  extents.resize(start);
  for (const Extent& e : old_suffix_) {
    if (e.lblock < first_removed_lblock) {
      uint64_t keep = first_removed_lblock - e.lblock;
      extents.push_back(Extent{e.lblock, keep, e.pblock});
      if (freed != nullptr) {
        freed->push_back(Extent{first_removed_lblock, e.count - keep, e.pblock + keep});
      }
    } else if (freed != nullptr) {
      freed->push_back(e);
    }
  }
  return Update(inode, &mirror, start, old_suffix_);
}

Status ExtentList::Destroy(Inode* inode) {
  const Mirror& mirror = MirrorOf(*inode);
  for (const Extent& e : mirror.extents) {
    allocator_->Free(e.pblock, e.count);
  }
  for (uint64_t block : mirror.blocks) {
    allocator_->Free(block);
  }
  mirrors_.erase(inode->inum);
  inode->extent_root = 0;
  return Status::Ok();
}

}  // namespace linefs::fslib
