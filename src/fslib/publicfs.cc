#include "src/fslib/publicfs.h"

#include <algorithm>
#include <compare>
#include <unordered_set>

#include "src/sim/check.h"

namespace linefs::fslib {

struct PublicFs::PlanContext {
  // The planning view of one inode: its published mapping (read through the
  // extent mirror) overlaid with the runs earlier entries of this batch
  // planned, and clipped by the truncates and creates among them.
  struct View {
    Inode inode;                  // As published (inum 0: not published).
    uint64_t cut = UINT64_MAX;    // Published blocks from here on are gone.
    std::vector<Extent> planned;  // Oldest first.
    uint64_t size = 0;
  };
  std::unordered_map<InodeNum, View> views;

  View& Ensure(PublicFs* fs, InodeNum inum) {
    auto [it, inserted] = views.try_emplace(inum);
    View& view = it->second;
    if (inserted) {
      Result<Inode> inode = fs->inodes_.Get(inum);
      if (inode.ok()) {
        view.inode = *inode;
        view.size = inode->size;
      } else {
        view.cut = 0;
      }
    }
    return view;
  }

  // The physical block behind `lblock` in the view, if mapped.
  static std::optional<uint64_t> Lookup(PublicFs* fs, const View& view, uint64_t lblock) {
    for (auto it = view.planned.rbegin(); it != view.planned.rend(); ++it) {
      if (lblock >= it->lblock && lblock < it->lblock + it->count) {
        return it->pblock + (lblock - it->lblock);
      }
    }
    if (lblock >= view.cut) {
      return std::nullopt;
    }
    std::optional<Extent> published = fs->extents_.Lookup(view.inode, lblock);
    if (!published.has_value()) {
      return std::nullopt;
    }
    return published->pblock;
  }
};

PublicFs::PublicFs(pmem::Region* region, const Layout& layout, bool materialize)
    : region_(region), layout_(layout), materialize_(materialize), inodes_(region, layout),
      allocator_(layout.data_first_block, layout.data_block_count),
      extents_(region, &allocator_), dirs_(region, &allocator_, &inodes_, &extents_) {}

void PublicFs::Mkfs() {
  Superblock sb;
  sb.inode_count = layout_.inode_count;
  sb.max_clients = static_cast<uint64_t>(layout_.max_clients);
  sb.log_size = layout_.log_size;
  sb.data_first_block = layout_.data_first_block;
  sb.data_block_count = layout_.data_block_count;
  region_->WriteObjectDurable(0, sb);

  allocator_.Reset();
  extents_.DropMirrors();
  dirs_.InvalidateAll();

  Inode root;
  root.inum = kRootInode;
  root.type = FileType::kDirectory;
  root.mode = kPermAll;
  root.nlink = 1;
  root.parent = kRootInode;
  inodes_.Put(root);
}

Status PublicFs::Mount() {
  Superblock sb = region_->ReadObject<Superblock>(0);
  if (sb.magic != Superblock::kMagic) {
    return Status::Error(ErrorCode::kCorrupt, "bad superblock magic");
  }
  allocator_.Reset();
  extents_.DropMirrors();
  dirs_.InvalidateAll();
  // Rebuild allocation state from live inodes: chain blocks + data extents.
  for (InodeNum inum = 1; inum < layout_.inode_count; ++inum) {
    if (!inodes_.InUse(inum)) {
      continue;
    }
    Result<Inode> inode = inodes_.Get(inum);
    if (!inode.ok()) {
      continue;
    }
    for (uint64_t block : extents_.ChainBlocks(*inode)) {
      allocator_.MarkAllocated(block, 1);
    }
    for (const Extent& e : extents_.Load(*inode)) {
      allocator_.MarkAllocated(e.pblock, e.count);
    }
  }
  return Status::Ok();
}

uint64_t PublicFs::epoch() const { return region_->ReadObject<Superblock>(0).epoch; }

void PublicFs::SetEpoch(uint64_t epoch) {
  Superblock sb = region_->ReadObject<Superblock>(0);
  sb.epoch = epoch;
  region_->WriteObjectDurable(0, sb);
}

Result<PublishPlan> PublicFs::PlanPublish(const std::vector<ParsedEntry>& parsed,
                                          const LogArea& log) {
  PublishPlan plan;
  plan.entries.resize(parsed.size());
  plan.copies.reserve(parsed.size());
  PlanContext ctx;

  for (size_t i = 0; i < parsed.size(); ++i) {
    const ParsedEntry& entry = parsed[i];
    PublishPlan::PerEntry& per = plan.entries[i];
    const LogEntryHeader& h = entry.header;
    switch (h.type) {
      case LogOpType::kCreate:
      case LogOpType::kMkdir: {
        PlanContext::View& view = ctx.views[h.inum];
        view.cut = 0;
        view.planned.clear();
        view.size = 0;
        break;
      }
      case LogOpType::kTruncate: {
        PlanContext::View& view = ctx.Ensure(this, h.inum);
        uint64_t new_size = h.offset;
        // Drop view mappings at or beyond the new end (mirrors TruncateTo).
        uint64_t first_removed = BlocksFor(new_size);
        std::erase_if(view.planned, [&](const Extent& e) { return e.lblock >= first_removed; });
        for (Extent& e : view.planned) {
          e.count = std::min(e.count, first_removed - e.lblock);
        }
        view.cut = std::min(view.cut, first_removed);
        view.size = new_size;
        per.new_size = new_size;
        break;
      }
      case LogOpType::kData: {
        PlanContext::View& view = ctx.Ensure(this, h.inum);
        uint64_t off = h.offset;
        uint64_t len = h.payload_len;
        uint64_t first_lb = off >> kBlockShift;
        uint64_t last_lb = (off + len - 1) >> kBlockShift;
        uint64_t nblocks = last_lb - first_lb + 1;

        Result<uint64_t> pblock = allocator_.Alloc(nblocks);
        if (!pblock.ok()) {
          return pblock.status();
        }
        plan.blocks_allocated += nblocks;
        uint64_t new_base = *pblock << kBlockShift;

        // Head partial block: preserve bytes before `off` within the block.
        uint64_t head_gap = off & (kBlockSize - 1);
        if (head_gap != 0) {
          std::optional<uint64_t> old = PlanContext::Lookup(this, view, first_lb);
          CopyOp op;
          op.kind = old.has_value() ? CopyOp::Kind::kOldBlock : CopyOp::Kind::kZero;
          op.src_off = old.has_value() ? *old << kBlockShift : 0;
          op.dst_off = new_base;
          op.len = head_gap;
          plan.copies.push_back(op);
          plan.copy_bytes += op.len;
        }
        // Tail partial block: preserve bytes after off+len within the block.
        uint64_t tail_gap = (off + len) & (kBlockSize - 1);
        if (tail_gap != 0) {
          std::optional<uint64_t> old = PlanContext::Lookup(this, view, last_lb);
          CopyOp op;
          op.kind = old.has_value() ? CopyOp::Kind::kOldBlock : CopyOp::Kind::kZero;
          op.src_off = old.has_value() ? (*old << kBlockShift) + tail_gap : 0;
          op.dst_off = new_base + (nblocks - 1) * kBlockSize + tail_gap;
          op.len = kBlockSize - tail_gap;
          plan.copies.push_back(op);
          plan.copy_bytes += op.len;
        }
        // Payload bytes.
        CopyOp payload;
        payload.kind = CopyOp::Kind::kPayload;
        payload.src_off = log.PayloadPhys(entry.logical_pos);
        payload.dst_off = new_base + head_gap;
        payload.len = len;
        plan.copies.push_back(payload);
        plan.copy_bytes += len;

        per.segment = PublishPlan::Segment{first_lb, nblocks, *pblock};
        view.planned.push_back(Extent{first_lb, nblocks, *pblock});
        view.size = std::max(view.size, off + len);
        per.new_size = view.size;
        break;
      }
      default:
        break;  // Unlink/rmdir/rename: metadata-only, handled at commit.
    }
  }
  return plan;
}

void PublicFs::ExecuteCopies(const PublishPlan& plan) {
  if (!materialize_) {
    return;
  }
  for (const CopyOp& op : plan.copies) {
    switch (op.kind) {
      case CopyOp::Kind::kPayload:
      case CopyOp::Kind::kOldBlock:
        region_->CopyDurable(op.dst_off, op.src_off, op.len);
        break;
      case CopyOp::Kind::kZero:
        region_->FillDurable(op.dst_off, 0, op.len);
        break;
    }
  }
}

Status PublicFs::ApplyNamespaceOp(const ParsedEntry& entry) {
  const LogEntryHeader& h = entry.header;
  std::string_view payload(reinterpret_cast<const char*>(entry.payload.data()),
                           entry.payload.size());
  switch (h.type) {
    case LogOpType::kCreate:
    case LogOpType::kMkdir: {
      Inode inode;
      inode.inum = h.inum;
      inode.type = h.type == LogOpType::kMkdir ? FileType::kDirectory : FileType::kRegular;
      inode.mode = h.mode;
      inode.owner_client = h.client_id;
      inode.nlink = 1;
      inode.parent = h.parent;
      inodes_.Put(inode);
      return dirs_.Add(h.parent, payload, h.inum);
    }
    case LogOpType::kUnlink:
    case LogOpType::kRmdir: {
      Status st = dirs_.Remove(h.parent, payload);
      if (!st.ok()) {
        return st;
      }
      Result<Inode> inode = inodes_.Get(h.inum);
      if (!inode.ok()) {
        return inode.status();
      }
      if (inode->nlink <= 1) {
        extents_.Destroy(&inode.value());
        inodes_.Free(h.inum);
        dirs_.InvalidateCache(h.inum);
      } else {
        --inode->nlink;
        inodes_.Put(*inode);
      }
      return Status::Ok();
    }
    case LogOpType::kRename: {
      size_t sep = payload.find('\0');
      if (sep == std::string_view::npos) {
        return Status::Error(ErrorCode::kInvalid, "bad rename payload");
      }
      std::string_view old_name = payload.substr(0, sep);
      std::string_view new_name = payload.substr(sep + 1);
      InodeNum dst_parent = h.rename_dst_parent();
      Status st = dirs_.Remove(h.parent, old_name);
      if (!st.ok()) {
        return st;
      }
      // Replace an existing destination (POSIX rename semantics).
      Result<InodeNum> existing = dirs_.Lookup(dst_parent, new_name);
      if (existing.ok()) {
        Result<Inode> victim = inodes_.Get(*existing);
        if (victim.ok()) {
          extents_.Destroy(&victim.value());
          inodes_.Free(*existing);
        }
        st = dirs_.Remove(dst_parent, new_name);
        if (!st.ok()) {
          return st;
        }
      }
      st = dirs_.Add(dst_parent, new_name, h.inum);
      if (!st.ok()) {
        return st;
      }
      Result<Inode> moved = inodes_.Get(h.inum);
      if (!moved.ok()) {
        return moved.status();
      }
      moved->parent = dst_parent;
      inodes_.Put(*moved);
      return Status::Ok();
    }
    default:
      return Status::Error(ErrorCode::kInvalid, "not a namespace op");
  }
}

Status PublicFs::CommitPublish(const PublishPlan& plan, const std::vector<ParsedEntry>& parsed) {
  LINEFS_CHECK(plan.entries.size() == parsed.size());
  std::vector<Extent> freed;
  for (size_t i = 0; i < parsed.size(); ++i) {
    const ParsedEntry& entry = parsed[i];
    const PublishPlan::PerEntry& per = plan.entries[i];
    const LogEntryHeader& h = entry.header;
    switch (h.type) {
      case LogOpType::kCreate:
      case LogOpType::kMkdir:
      case LogOpType::kUnlink:
      case LogOpType::kRmdir:
      case LogOpType::kRename: {
        Status st = ApplyNamespaceOp(entry);
        if (!st.ok()) {
          return st;
        }
        break;
      }
      case LogOpType::kData: {
        Result<Inode> inode = inodes_.Get(h.inum);
        if (!inode.ok()) {
          return inode.status();
        }
        freed.clear();
        const PublishPlan::Segment& seg = per.segment;
        Status st =
            extents_.InsertRange(&inode.value(), seg.lblock, seg.nblocks, seg.pblock, &freed);
        if (!st.ok()) {
          return st;
        }
        for (const Extent& e : freed) {
          allocator_.Free(e.pblock, e.count);
        }
        // The plan tracked the running size through the whole batch (including
        // interleaved truncates), so it is authoritative.
        inode->size = per.new_size;
        inodes_.Put(*inode);
        published_bytes_ += h.payload_len;
        break;
      }
      case LogOpType::kTruncate: {
        Result<Inode> inode = inodes_.Get(h.inum);
        if (!inode.ok()) {
          return inode.status();
        }
        freed.clear();
        Status st = extents_.TruncateTo(&inode.value(), BlocksFor(per.new_size), &freed);
        if (!st.ok()) {
          return st;
        }
        for (const Extent& e : freed) {
          allocator_.Free(e.pblock, e.count);
        }
        // Zero the stale tail of the partial last block: if the file is later
        // extended, POSIX requires the gap to read as zeros.
        uint64_t in_block = per.new_size & (kBlockSize - 1);
        if (in_block != 0) {
          std::optional<Extent> tail =
              extents_.Lookup(*inode, per.new_size >> kBlockShift);
          if (tail.has_value()) {
            uint64_t off = (tail->pblock << kBlockShift) + in_block;
            region_->FillDurable(off, 0, kBlockSize - in_block);
          }
        }
        inode->size = per.new_size;
        inodes_.Put(*inode);
        break;
      }
      default:
        break;
    }
    ++published_entries_;
  }
  return Status::Ok();
}

Status PublicFs::Publish(const std::vector<ParsedEntry>& parsed, const LogArea& log) {
  Result<PublishPlan> plan = PlanPublish(parsed, log);
  if (!plan.ok()) {
    return plan.status();
  }
  ExecuteCopies(*plan);
  return CommitPublish(*plan, parsed);
}

Result<FileAttr> PublicFs::GetAttr(InodeNum inum) {
  Result<Inode> inode = inodes_.Get(inum);
  if (!inode.ok()) {
    return inode.status();
  }
  FileAttr attr;
  attr.inum = inode->inum;
  attr.type = inode->type;
  attr.mode = inode->mode;
  attr.size = inode->size;
  attr.nlink = inode->nlink;
  return attr;
}

Result<uint64_t> PublicFs::ReadData(InodeNum inum, uint64_t offset, std::span<uint8_t> out) {
  Result<Inode> inode = inodes_.Get(inum);
  if (!inode.ok()) {
    return inode.status();
  }
  if (offset >= inode->size) {
    return static_cast<uint64_t>(0);
  }
  uint64_t len = std::min<uint64_t>(out.size(), inode->size - offset);
  const std::vector<Extent>& extents = extents_.Load(*inode);
  uint64_t done = 0;
  while (done < len) {
    uint64_t pos = offset + done;
    uint64_t lblock = pos >> kBlockShift;
    uint64_t in_block = pos & (kBlockSize - 1);
    uint64_t n = std::min(len - done, kBlockSize - in_block);
    std::optional<Extent> extent = ExtentList::LookupIn(extents, lblock);
    if (extent.has_value()) {
      // Extend the read across the physically contiguous run.
      uint64_t run_bytes = extent->count * kBlockSize - in_block;
      n = std::min(len - done, run_bytes);
      region_->Read((extent->pblock << kBlockShift) + in_block, out.data() + done, n);
    } else {
      std::memset(out.data() + done, 0, n);  // Hole.
    }
    done += n;
  }
  return len;
}

void PublicFs::CopyFileData(PublicFs& peer, Inode* local) {
  if (!materialize_ || local->size == 0) {
    return;
  }
  uint64_t nblocks = BlocksFor(local->size);
  Result<uint64_t> pblock = allocator_.Alloc(nblocks);
  if (!pblock.ok()) {
    return;
  }
  std::vector<uint8_t> buffer(local->size);
  if (peer.ReadData(local->inum, 0, buffer).ok()) {
    region_->WriteDurable(*pblock << kBlockShift, buffer.data(), buffer.size());
  }
  extents_.InsertRange(local, 0, nblocks, *pblock, nullptr);
}

uint64_t CoalesceEntries(std::vector<ParsedEntry>* entries) {
  uint64_t eliminated = 0;
  std::vector<bool> drop(entries->size(), false);

  // Pass 1: create..unlink lifetimes fully contained in this chunk. Skip
  // inodes involved in renames (conservative).
  std::unordered_set<InodeNum> renamed;
  for (const ParsedEntry& e : *entries) {
    if (e.header.type == LogOpType::kRename) {
      renamed.insert(e.header.inum);
    }
  }
  std::unordered_map<InodeNum, size_t> created_at;
  for (size_t i = 0; i < entries->size(); ++i) {
    const LogEntryHeader& h = (*entries)[i].header;
    if (renamed.contains(h.inum)) {
      continue;
    }
    if (h.type == LogOpType::kCreate || h.type == LogOpType::kMkdir) {
      created_at[h.inum] = i;
    } else if ((h.type == LogOpType::kUnlink || h.type == LogOpType::kRmdir) &&
               created_at.contains(h.inum)) {
      // Drop everything this inode did between create and unlink.
      for (size_t j = created_at[h.inum]; j <= i; ++j) {
        if ((*entries)[j].header.inum == h.inum && !drop[j]) {
          drop[j] = true;
          eliminated += (*entries)[j].header.payload_len;
        }
      }
      created_at.erase(h.inum);
    }
  }

  // Pass 2: a data write fully superseded by a later write of the same exact
  // (inum, offset, len) range is skipped (temporarily durable data). Sorting
  // the writes by range, then position, puts each superseded one right before
  // a later write of its range.
  struct Write {
    InodeNum inum;
    uint64_t offset;
    uint64_t len;
    size_t idx;
    auto operator<=>(const Write&) const = default;
  };
  std::vector<Write> writes;
  for (size_t i = 0; i < entries->size(); ++i) {
    const LogEntryHeader& h = (*entries)[i].header;
    if (h.type == LogOpType::kData && !drop[i]) {
      writes.push_back(Write{h.inum, h.offset, h.payload_len, i});
    }
  }
  std::sort(writes.begin(), writes.end());
  for (size_t k = 0; k + 1 < writes.size(); ++k) {
    const Write& w = writes[k];
    const Write& next = writes[k + 1];
    if (w.inum == next.inum && w.offset == next.offset && w.len == next.len) {
      drop[w.idx] = true;  // A later entry overwrites the same range.
      eliminated += w.len;
    }
  }

  if (eliminated > 0) {
    std::vector<ParsedEntry> kept;
    kept.reserve(entries->size());
    for (size_t i = 0; i < entries->size(); ++i) {
      if (!drop[i]) {
        kept.push_back(std::move((*entries)[i]));
      }
    }
    *entries = std::move(kept);
  }
  return eliminated;
}

}  // namespace linefs::fslib
