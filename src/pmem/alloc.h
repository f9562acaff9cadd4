// Bitmap block allocator for the public PM area.
//
// Allocator state lives in DRAM and is reconstructable: after a crash, the
// recovery path rebuilds it by scanning the inode table's extent trees
// (publication is idempotent, §3.5), so the bitmap itself needs no persistence.

#ifndef SRC_PMEM_ALLOC_H_
#define SRC_PMEM_ALLOC_H_

#include <cstdint>
#include <vector>

#include "src/sim/result.h"

namespace linefs::pmem {

class BlockAllocator {
 public:
  // Manages blocks [first_block, first_block + total_blocks).
  BlockAllocator(uint64_t first_block, uint64_t total_blocks);

  // Allocates `count` contiguous blocks; returns the first block number.
  Result<uint64_t> Alloc(uint64_t count = 1);

  // Allocates one block, searching down from the top of the area. Small
  // metadata blocks go here so they never split the data runs that Alloc()
  // lays out from the bottom up.
  Result<uint64_t> AllocFromTop();

  // Frees `count` blocks starting at `block`.
  void Free(uint64_t block, uint64_t count = 1);

  bool IsAllocated(uint64_t block) const;

  // Marks a range allocated (used when rebuilding state during recovery).
  void MarkAllocated(uint64_t block, uint64_t count);

  // Resets to the fully-free state.
  void Reset();

  uint64_t free_blocks() const { return free_blocks_; }
  uint64_t total_blocks() const { return total_blocks_; }
  uint64_t first_block() const { return first_block_; }

 private:
  uint64_t first_block_;
  uint64_t total_blocks_;
  uint64_t free_blocks_;
  uint64_t next_hint_ = 0;  // Next-fit cursor: keeps typical allocations sequential.
  uint64_t top_hint_;      // AllocFromTop()'s cursor, moving down.
  std::vector<bool> bitmap_;
};

}  // namespace linefs::pmem

#endif  // SRC_PMEM_ALLOC_H_
