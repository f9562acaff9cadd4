// The unit of work flowing through the NICFS persistence pipeline.
//
// A chunk is one contiguous client-log range, fetched once and then shared by
// the publication path (entries) and the replication path (wire bytes). Stage
// plugins (src/pipeline/stage.h) transform the wire representation in place:
// compress fills `wire`, encryption scrambles it, checksumming seals it. The
// `wire_*` flags record which transforms the bytes currently carry so the
// receiving replica can undo them in reverse order.

#ifndef SRC_PIPELINE_CHUNK_H_
#define SRC_PIPELINE_CHUNK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fslib/oplog.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace linefs::pipeline {

struct Chunk {
  int client = 0;
  uint64_t no = 0;
  uint64_t from = 0;
  uint64_t to = 0;
  bool urgent = false;
  bool failed = false;  // Parse/validation failure: skip work, keep order.
  fslib::LogRange range;                    // As fetched into NIC memory.
  std::vector<fslib::ParsedEntry> entries;  // Populated by validation.
  std::vector<uint8_t> wire;                // Transformed image (optional).
  bool wire_compressed = false;
  bool wire_encrypted = false;
  bool wire_checksummed = false;
  uint64_t wire_checksum = 0;               // Seal over the final wire bytes.
  uint64_t mem_reserved = 0;
  int release_refs = 0;
  // Causal-trace position: updated as the chunk moves through the shared
  // stages (fetch -> validate), so each stage span parents on the previous.
  obs::TraceContext ctx;
  uint64_t bytes() const { return to - from; }
};

using ChunkPtr = std::shared_ptr<Chunk>;

}  // namespace linefs::pipeline

#endif  // SRC_PIPELINE_CHUNK_H_
