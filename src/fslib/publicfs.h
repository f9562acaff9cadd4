// Public PM area: the published, globally readable file-system state of one
// node, and the digestion machinery that applies client-log entries to it.
//
// Digestion is split in two to mirror LineFS's offload structure (§3.3.1):
//
//   PlanPublish()  - allocates target blocks and builds the ordered *copy
//                    list* (what NICFS computes on the SmartNIC);
//   ExecuteCopies()- moves the data bytes (what the kernel worker's I/OAT DMA
//                    — or a host memcpy, or NICFS itself in isolated mode —
//                    performs);
//   CommitPublish()- applies metadata mutations (inodes, extents, dirents)
//                    and persists them.
//
// Publication is copy-on-write (data entries always land in freshly allocated
// blocks), which keeps it idempotent across crashes (§3.5).

#ifndef SRC_FSLIB_PUBLICFS_H_
#define SRC_FSLIB_PUBLICFS_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/fslib/dir.h"
#include "src/fslib/extent.h"
#include "src/fslib/inode.h"
#include "src/fslib/layout.h"
#include "src/fslib/oplog.h"
#include "src/fslib/types.h"
#include "src/pmem/alloc.h"
#include "src/pmem/region.h"
#include "src/sim/result.h"

namespace linefs::fslib {

struct CopyOp {
  enum class Kind : uint8_t {
    kPayload,   // Log payload bytes -> public block.
    kOldBlock,  // Existing public block -> new block (partial-write RMW).
    kZero,      // Zero-fill (sparse partial write into a fresh block).
  };
  Kind kind = Kind::kPayload;
  uint64_t src_off = 0;  // Region offset (kPayload: in the client log).
  uint64_t dst_off = 0;  // Region offset in the public area.
  uint64_t len = 0;
};

struct PublishPlan {
  struct Segment {
    uint64_t lblock = 0;
    uint64_t nblocks = 0;
    uint64_t pblock = 0;
  };
  struct PerEntry {
    Segment segment;        // Extent insert of a data entry.
    uint64_t new_size = 0;  // Resulting file size (data/truncate).
  };

  std::vector<PerEntry> entries;  // Parallel to the input entry vector.
  std::vector<CopyOp> copies;     // In execution order.
  uint64_t copy_bytes = 0;
  uint64_t blocks_allocated = 0;
};

class PublicFs {
 public:
  PublicFs(pmem::Region* region, const Layout& layout);

  // Formats the region: superblock + root directory.
  void Mkfs();

  // Mounts an existing image: verifies the superblock and rebuilds the block
  // allocator by scanning live inodes (extent chains + data runs).
  Status Mount();

  // --- Digestion -----------------------------------------------------------

  Result<PublishPlan> PlanPublish(const std::vector<ParsedEntry>& parsed, const LogArea& log);

  // Moves plan data. With materialize=false the byte movement is elided
  // (benchmark mode); allocation and metadata stay fully real.
  void ExecuteCopies(const PublishPlan& plan, bool materialize);

  Status CommitPublish(const PublishPlan& plan, const std::vector<ParsedEntry>& parsed);

  // Convenience: plan + copy + commit in one step (host-side digestion and
  // tests).
  Status Publish(const std::vector<ParsedEntry>& parsed, const LogArea& log, bool materialize);

  // --- Read backend --------------------------------------------------------

  Result<InodeNum> LookupChild(InodeNum dir, std::string_view name) {
    return dirs_.Lookup(dir, name);
  }
  Result<FileAttr> GetAttr(InodeNum inum);
  // Reads published data; returns bytes read (clipped at file size; holes are
  // zero-filled).
  Result<uint64_t> ReadData(InodeNum inum, uint64_t offset, std::span<uint8_t> out,
                            bool materialize = true);

  // --- Accessors -----------------------------------------------------------

  pmem::Region& region() { return *region_; }
  const Layout& layout() const { return layout_; }
  InodeTable& inodes() { return inodes_; }
  pmem::BlockAllocator& allocator() { return allocator_; }
  ExtentList& extents() { return extents_; }
  DirStore& dirs() { return dirs_; }

  uint64_t epoch() const;
  void SetEpoch(uint64_t epoch);

  uint64_t published_entries() const { return published_entries_; }
  uint64_t published_bytes() const { return published_bytes_; }

 private:
  Status ApplyNamespaceOp(const ParsedEntry& entry);
  // Planning-time view of an inode's mapping: PM extents overlaid with
  // segments planned earlier in the same batch.
  struct PlanContext;

  pmem::Region* region_;
  Layout layout_;
  InodeTable inodes_;
  pmem::BlockAllocator allocator_;
  ExtentList extents_;
  DirStore dirs_;
  uint64_t published_entries_ = 0;
  uint64_t published_bytes_ = 0;
};

// Coalescing (§3.3.1 "data-path processing opportunities"): removes
// temporarily-durable write patterns from a chunk before publication —
// create+unlink lifetimes contained in the chunk, and data writes fully
// superseded by a later write of the same range. Returns payload bytes
// eliminated.
uint64_t CoalesceEntries(std::vector<ParsedEntry>* entries);

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_PUBLICFS_H_
