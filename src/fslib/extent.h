// Per-file extent maps (the public-area file index, cf. ext4 extents [45]).
//
// Each file's logical-block -> physical-block mapping is a sorted run-length
// list stored in a chain of PM blocks hanging off the inode's `extent_root`.
// Every chain block except the last is full. Chain blocks come from the
// allocator's top-down cursor, so they never split the data runs that
// sequential appends allocate: those runs merge into one extent. Overwrites
// are copy-on-write: InsertRange() carves out any overlapped old runs and
// reports them so the caller can free the blocks.
//
// Metadata lives in DRAM, PM holds the durable copy (cf. SplitFS). Each
// inode's decoded extents and chain blocks are mirrored in DRAM, loaded from
// PM on first use. Reads (Load, Lookup, ChainBlocks) are served from the
// mirror. An edit is applied to the mirror in place (a binary search and a
// splice; an append past the last run merges into it or is pushed back), and
// then only the changed suffix is written to PM. A mirror is reloaded when
// the inode's `extent_root` is not the one it was loaded from, and all are
// dropped on DropMirrors() (Mkfs, Mount) and when the Region has crashed since
// they were loaded; Destroy() drops the inode's own.
//
// Updates keep the chain and write only what changed, so an append costs O(1)
// PM metadata however many extents the file has:
//  - a new run appended into the last block's free slots: the entries are
//    written and persisted first, then the block's `count` is bumped;
//  - the last run grown or shrunk in place (a sequential append that merges
//    with it): its 8-byte `count` field is rewritten;
//  - anything else (a change in the middle, a truncate, an append past a
//    full last block): the suffix from the first block that holds a changed
//    entry (or is the non-full last block) is written into fresh blocks and
//    persisted, then linked by one 8-byte `next` update of the last kept
//    block, or through `inode->extent_root` when no block is kept (durable
//    once the caller writes the inode); the replaced blocks are freed last.
// Crash rule: at every Persist() boundary inside an update the durable chain
// decodes to the old list or the new one, and the allocator that
// PublicFs::Mount() rebuilds from the chains matches it.

#ifndef SRC_FSLIB_EXTENT_H_
#define SRC_FSLIB_EXTENT_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/fslib/inode.h"
#include "src/fslib/types.h"
#include "src/pmem/alloc.h"
#include "src/pmem/region.h"
#include "src/sim/result.h"

namespace linefs::fslib {

struct Extent {
  uint64_t lblock = 0;  // First logical block.
  uint64_t count = 0;   // Run length in blocks.
  uint64_t pblock = 0;  // First physical block.

  bool operator==(const Extent&) const = default;
};

class ExtentList {
 public:
  ExtentList(pmem::Region* region, pmem::BlockAllocator* allocator)
      : region_(region), allocator_(allocator) {}

  // The full (sorted) extent list of `inode`. The reference points into the
  // mirror: it is valid until this ExtentList edits or drops that mirror, or
  // serves any inode after a Region crash.
  const std::vector<Extent>& Load(const Inode& inode) const;

  // The chain blocks of `inode`, head first (same validity as Load).
  const std::vector<uint64_t>& ChainBlocks(const Inode& inode) const;

  // Maps `lblock`; the returned extent is clipped to start at lblock.
  std::optional<Extent> Lookup(const Inode& inode, uint64_t lblock) const;

  // Inserts mapping [lblock, lblock+count) -> pblock. Overlapping parts of
  // existing extents are removed and appended to `freed` (physical runs).
  // May update inode->extent_root; does not persist the inode record itself.
  Status InsertRange(Inode* inode, uint64_t lblock, uint64_t count, uint64_t pblock,
                     std::vector<Extent>* freed);

  // Removes all mappings at or beyond `first_removed_lblock`.
  Status TruncateTo(Inode* inode, uint64_t first_removed_lblock, std::vector<Extent>* freed);

  // Frees the whole chain and all data blocks (unlink of a 0-link file).
  Status Destroy(Inode* inode);

  // Forgets every mirror: the PM image was formatted or is being remounted.
  void DropMirrors() { mirrors_.clear(); }

  // Chains decoded from PM so far, i.e. mirror misses.
  uint64_t chain_loads() const { return chain_loads_; }

  static std::optional<Extent> LookupIn(const std::vector<Extent>& extents, uint64_t lblock);

 private:
  static constexpr uint32_t kNodeMagic = 0x45585431;  // "EXT1"

  struct NodeHeader {
    uint32_t magic = kNodeMagic;
    uint32_t count = 0;
    uint64_t next = 0;  // Next chain block, 0 = end.
  };
  static constexpr uint64_t kEntriesPerBlock = (kBlockSize - sizeof(NodeHeader)) / sizeof(Extent);

  // DRAM copy of one inode's chain.
  struct Mirror {
    uint64_t root = 0;  // The extent_root it was loaded from.
    std::vector<Extent> extents;
    std::vector<uint64_t> blocks;
  };

  // The mirror of `inode`, loaded from PM on a miss.
  Mirror& MirrorOf(const Inode& inode) const;
  // Decodes the chain at mirror->root from PM into `mirror`.
  void LoadChain(Mirror* mirror) const;
  // Persists an edit already applied to `mirror`: entries before `first` are
  // unchanged, and `old_suffix` holds the old entries from `first` on.
  Status Update(Inode* inode, Mirror* mirror, size_t first,
                const std::vector<Extent>& old_suffix);
  // Writes `n` extents into fresh, persisted chain blocks, appended to
  // `chain`; returns the head block (0 when n == 0).
  Result<uint64_t> WriteBlocks(const Extent* extents, size_t n, std::vector<uint64_t>* chain);

  pmem::Region* region_;
  pmem::BlockAllocator* allocator_;
  mutable std::unordered_map<InodeNum, Mirror> mirrors_;
  mutable uint64_t mirrored_crash_count_ = 0;  // region_->crash_count() when mirrors_ was valid.
  mutable uint64_t chain_loads_ = 0;
  std::vector<Extent> old_suffix_;  // Update's old suffix; kept to reuse its capacity.
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_EXTENT_H_
