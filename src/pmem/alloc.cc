#include "src/pmem/alloc.h"

#include <algorithm>

namespace linefs::pmem {

BlockAllocator::BlockAllocator(uint64_t first_block, uint64_t total_blocks)
    : first_block_(first_block), total_blocks_(total_blocks), free_blocks_(total_blocks),
      top_hint_(total_blocks - 1), bitmap_(total_blocks, false) {}

Result<uint64_t> BlockAllocator::Alloc(uint64_t count) {
  if (count == 0 || count > free_blocks_) {
    return Status::Error(ErrorCode::kNoSpace, "allocator exhausted");
  }
  // Next-fit scan with wrap-around.
  for (uint64_t attempt = 0; attempt < 2; ++attempt) {
    uint64_t start = attempt == 0 ? next_hint_ : 0;
    uint64_t limit = attempt == 0 ? total_blocks_ : next_hint_ + count;
    if (limit > total_blocks_) {
      limit = total_blocks_;
    }
    uint64_t run = 0;
    for (uint64_t i = start; i < limit; ++i) {
      if (bitmap_[i]) {
        run = 0;
        continue;
      }
      ++run;
      if (run == count) {
        uint64_t first = i + 1 - count;
        for (uint64_t j = first; j <= i; ++j) {
          bitmap_[j] = true;
        }
        free_blocks_ -= count;
        next_hint_ = (i + 1) % total_blocks_;
        return first_block_ + first;
      }
    }
  }
  return Status::Error(ErrorCode::kNoSpace, "no contiguous run");
}

Result<uint64_t> BlockAllocator::AllocFromTop() {
  if (free_blocks_ == 0) {
    return Status::Error(ErrorCode::kNoSpace, "allocator exhausted");
  }
  // Next-fit scan downwards with wrap-around.
  for (uint64_t n = 0; n < total_blocks_; ++n) {
    uint64_t i = (top_hint_ + total_blocks_ - n) % total_blocks_;
    if (!bitmap_[i]) {
      bitmap_[i] = true;
      --free_blocks_;
      top_hint_ = (i + total_blocks_ - 1) % total_blocks_;
      return first_block_ + i;
    }
  }
  return Status::Error(ErrorCode::kNoSpace, "allocator exhausted");
}

void BlockAllocator::Free(uint64_t block, uint64_t count) {
  uint64_t idx = block - first_block_;
  for (uint64_t i = 0; i < count; ++i) {
    if (idx + i < total_blocks_ && bitmap_[idx + i]) {
      bitmap_[idx + i] = false;
      ++free_blocks_;
      // AllocFromTop hands this block out again before going lower: a
      // copy-on-write metadata rewrite then alternates between two blocks
      // instead of walking down the data area one fresh block at a time.
      top_hint_ = std::max(top_hint_, idx + i);
    }
  }
}

bool BlockAllocator::IsAllocated(uint64_t block) const {
  uint64_t idx = block - first_block_;
  return idx < total_blocks_ && bitmap_[idx];
}

void BlockAllocator::MarkAllocated(uint64_t block, uint64_t count) {
  uint64_t idx = block - first_block_;
  for (uint64_t i = 0; i < count; ++i) {
    if (idx + i < total_blocks_ && !bitmap_[idx + i]) {
      bitmap_[idx + i] = true;
      --free_blocks_;
    }
  }
}

void BlockAllocator::Reset() {
  std::fill(bitmap_.begin(), bitmap_.end(), false);
  free_blocks_ = total_blocks_;
  next_hint_ = 0;
  top_hint_ = total_blocks_ - 1;
}

}  // namespace linefs::pmem
