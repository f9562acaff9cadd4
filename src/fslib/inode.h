// PM-resident inode table.
//
// Inodes are fixed 256-byte records in a flat table right after the
// superblock. LibFS instances allocate inode numbers from disjoint per-client
// ranges (no allocation RPC on create, §3.2); the publish path materializes
// the records. `parent` back-pointers support directory-cycle validation.

#ifndef SRC_FSLIB_INODE_H_
#define SRC_FSLIB_INODE_H_

#include <cstdint>

#include "src/fslib/layout.h"
#include "src/fslib/types.h"
#include "src/pmem/region.h"
#include "src/sim/result.h"

namespace linefs::fslib {

struct Inode {
  InodeNum inum = kInvalidInode;
  FileType type = FileType::kNone;
  uint16_t mode = kPermAll;
  uint32_t owner_client = 0;
  uint64_t size = 0;
  uint64_t nlink = 0;
  InodeNum parent = kInvalidInode;
  uint64_t extent_root = 0;  // First block of the extent chain; 0 = none.
  uint64_t mtime = 0;
  uint64_t generation = 0;
  uint8_t pad[192] = {};

  bool InUse() const { return type != FileType::kNone; }
};
static_assert(sizeof(Inode) == Layout::kInodeSize);

class InodeTable {
 public:
  InodeTable(pmem::Region* region, const Layout& layout)
      : region_(region), layout_(layout) {}

  Result<Inode> Get(InodeNum inum) const {
    if (inum == kInvalidInode || inum >= layout_.inode_count) {
      return Status::Error(ErrorCode::kInvalid, "inum out of range");
    }
    Inode inode = region_->ReadObject<Inode>(layout_.InodeOffset(inum));
    if (!inode.InUse()) {
      return Status::Error(ErrorCode::kNotFound, "inode not in use");
    }
    return inode;
  }

  bool InUse(InodeNum inum) const {
    if (inum == kInvalidInode || inum >= layout_.inode_count) {
      return false;
    }
    return region_->ReadObject<Inode>(layout_.InodeOffset(inum)).InUse();
  }

  // Writes + persists the record.
  void Put(const Inode& inode) {
    region_->WriteObjectDurable(layout_.InodeOffset(inode.inum), inode);
  }

  void Free(InodeNum inum) {
    Inode empty;
    empty.inum = inum;
    empty.type = FileType::kNone;
    Put(empty);
  }

  uint64_t capacity() const { return layout_.inode_count; }

 private:
  pmem::Region* region_;
  Layout layout_;
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_INODE_H_
