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

  // Loads the full (sorted) extent list of `inode`.
  std::vector<Extent> Load(const Inode& inode) const;

  // The chain blocks of `inode`, head first.
  std::vector<uint64_t> ChainBlocks(const Inode& inode) const;

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

  // In-memory helpers (also used on already-loaded lists).
  static std::optional<Extent> LookupIn(const std::vector<Extent>& extents, uint64_t lblock);
  static void InsertInto(std::vector<Extent>* extents, uint64_t lblock, uint64_t count,
                         uint64_t pblock, std::vector<Extent>* freed);

 private:
  static constexpr uint32_t kNodeMagic = 0x45585431;  // "EXT1"

  struct NodeHeader {
    uint32_t magic = kNodeMagic;
    uint32_t count = 0;
    uint64_t next = 0;  // Next chain block, 0 = end.
  };
  static constexpr uint64_t kEntriesPerBlock = (kBlockSize - sizeof(NodeHeader)) / sizeof(Extent);

  // Appends the entries of the chain at `root` to `extents` and, unless
  // null, its blocks to `blocks`.
  void LoadChain(uint64_t root, std::vector<Extent>* extents,
                 std::vector<uint64_t>* blocks) const;
  // Rewrites the chain of `inode` (holding `old` in `blocks`) to hold
  // `updated`.
  Status Update(Inode* inode, const std::vector<Extent>& old,
                const std::vector<uint64_t>& blocks, const std::vector<Extent>& updated);
  // Writes `n` extents into fresh, persisted chain blocks; returns the head
  // block (0 when n == 0).
  Result<uint64_t> WriteBlocks(const Extent* extents, size_t n);

  pmem::Region* region_;
  pmem::BlockAllocator* allocator_;
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_EXTENT_H_
