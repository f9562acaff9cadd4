// Common file-system types and constants shared by LibFS, NICFS, and the
// baseline DFS implementations.

#ifndef SRC_FSLIB_TYPES_H_
#define SRC_FSLIB_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/pmem/shared_bytes.h"
#include "src/sim/result.h"

namespace linefs::fslib {

using InodeNum = uint64_t;

inline constexpr InodeNum kInvalidInode = 0;
inline constexpr InodeNum kRootInode = 1;

inline constexpr uint64_t kBlockSize = 4096;
inline constexpr uint64_t kBlockShift = 12;

// Pipeline chunk: the unit of fetching/validation/publication/replication.
inline constexpr uint64_t kDefaultChunkSize = 4ULL << 20;  // 4 MB (§3.1).

enum class FileType : uint16_t {
  kNone = 0,
  kRegular = 1,
  kDirectory = 2,
};

// Simplified POSIX permission bits (owner rwx only; the permission-check
// *path* matters for the experiments, not the full mode space).
inline constexpr uint16_t kPermRead = 0x4;
inline constexpr uint16_t kPermWrite = 0x2;
inline constexpr uint16_t kPermAll = 0x7;

// Open flags.
inline constexpr uint32_t kOpenRead = 1u << 0;
inline constexpr uint32_t kOpenWrite = 1u << 1;
inline constexpr uint32_t kOpenCreate = 1u << 2;
inline constexpr uint32_t kOpenTrunc = 1u << 3;
inline constexpr uint32_t kOpenAppend = 1u << 4;

struct FileAttr {
  InodeNum inum = kInvalidInode;
  FileType type = FileType::kNone;
  uint16_t mode = kPermAll;
  uint64_t size = 0;
  uint64_t nlink = 0;
};

// Log-range images and the payloads parsed out of them (see
// src/pmem/shared_bytes.h).
using pmem::SharedBytes;

inline uint64_t BlocksFor(uint64_t bytes) { return (bytes + kBlockSize - 1) >> kBlockShift; }

// CRC32C (Castagnoli polynomial) used for log entry integrity: the CPU's
// crc32 instruction where it has SSE4.2, else the table path.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

// The two paths behind Crc32c, for tests that compare them. Crc32cHardware
// may only be called when Crc32cHasHardware() is true.
uint32_t Crc32cSlicing8(const void* data, size_t len, uint32_t seed);
uint32_t Crc32cHardware(const void* data, size_t len, uint32_t seed);
bool Crc32cHasHardware();

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_TYPES_H_
