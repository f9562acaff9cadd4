// On-PM layout of one LineFS node.
//
//   +--------------+---------------+----------------------------+-----------+
//   | superblock   | inode table   | client logs (max_clients)  | data area |
//   +--------------+---------------+----------------------------+-----------+
//
// The client log areas are the per-process private operational logs (§3.2);
// the data area holds published file blocks and extent-tree/dirent blocks
// (the "public area"). Block numbers are absolute: block b covers region
// bytes [b * 4096, (b+1) * 4096).

#ifndef SRC_FSLIB_LAYOUT_H_
#define SRC_FSLIB_LAYOUT_H_

#include <cstdint>

#include "src/fslib/types.h"

namespace linefs::fslib {

struct LayoutConfig {
  uint64_t inode_count = 65536;
  int max_clients = 16;
  uint64_t log_size = 512ULL << 20;  // Per-client private log (512 MB, §4).
};

struct Superblock {
  uint64_t magic = kMagic;
  uint64_t epoch = 0;
  uint64_t inode_count = 0;
  uint64_t max_clients = 0;
  uint64_t log_size = 0;
  uint64_t data_first_block = 0;
  uint64_t data_block_count = 0;

  static constexpr uint64_t kMagic = 0x4C696E654653'2021;  // "LineFS 2021"
};

struct Layout {
  uint64_t inode_table_offset = 0;
  uint64_t inode_count = 0;
  uint64_t log_area_offset = 0;
  int max_clients = 0;
  uint64_t log_size = 0;
  uint64_t data_offset = 0;
  uint64_t data_first_block = 0;
  uint64_t data_block_count = 0;

  static constexpr uint64_t kInodeSize = 256;

  static Layout Compute(uint64_t region_size, const LayoutConfig& config) {
    Layout l;
    l.inode_table_offset = kBlockSize;  // Block 0: superblock.
    l.inode_count = config.inode_count;
    uint64_t inode_bytes = config.inode_count * kInodeSize;
    l.log_area_offset = AlignUp(l.inode_table_offset + inode_bytes, kBlockSize);
    l.max_clients = config.max_clients;
    l.log_size = config.log_size;
    l.data_offset =
        AlignUp(l.log_area_offset + static_cast<uint64_t>(config.max_clients) * config.log_size,
                kBlockSize);
    l.data_first_block = l.data_offset >> kBlockShift;
    // A region too small for the logs leaves no data area (Validate() rejects it).
    l.data_block_count =
        region_size > l.data_offset ? (region_size - l.data_offset) >> kBlockShift : 0;
    return l;
  }

  uint64_t LogOffset(int client) const {
    return log_area_offset + static_cast<uint64_t>(client) * log_size;
  }

  uint64_t InodeOffset(InodeNum inum) const { return inode_table_offset + inum * kInodeSize; }

 private:
  static uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_LAYOUT_H_
