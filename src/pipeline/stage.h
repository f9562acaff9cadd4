// Pipeline-stage API (Meili-style "SmartNIC as a service").
//
// A Stage is one unit of the NICFS persistence pipeline. NICFS composes the
// per-pipe chain from DfsConfig::pipeline_stages through MakeStage() and runs
// each stage through generic queue-fed workers, scaling a stage's worker count
// with its queue depth (NicFs::ScaleStages). A worker runs on the home
// SmartNIC's wimpy cores, or on the home host's cores when host fallback
// (DfsConfig::placer_pooling) finds the NIC saturated.
//
// The set is closed: validate (§3.3.1), then a subsequence of the wire
// transforms compress (§5.4), xor_encrypt and checksum, in that order
// (DfsConfig::Validate() enforces it).
//
// Contract:
//  - Process() is a coroutine that transforms one chunk in place. It charges
//    compute to `where.pool` (never a hard-coded NIC), so a host-placed worker
//    automatically bills the host.
//  - Stages must tolerate elided payloads (a fetched range with no image):
//    charge the modelled cycles, skip the byte transform.
//  - The chain's first stage (validate) is required and its output also feeds
//    the publication pipeline; every later stage may be skipped under
//    backpressure (the generic worker's bypass, §3.3.2 generalized).
//  - Order within one chunk is the configured chain order; cross-chunk order
//    is restored downstream by reorder buffers, so NIC and host workers of
//    one stage can share its queue without reordering the wire.

#ifndef SRC_PIPELINE_STAGE_H_
#define SRC_PIPELINE_STAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/fslib/validate.h"
#include "src/hw/params.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/chunk.h"
#include "src/sim/cpu.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace linefs::pipeline {

// Where a stage worker executes: the home NIC or the home host.
struct Placement {
  int node = 0;                  // Node whose cores run the stage.
  sim::CpuPool* pool = nullptr;  // Compute pool Process() charges cycles to.
  int account = 0;               // Busy-accounting bucket within `pool`.
  // Data-movement cost of a host-placed worker, awaited once per chunk before
  // Process(): ships the chunk bytes up to the host and the result descriptor
  // back. Empty for NIC placement.
  std::function<sim::Task<>(uint64_t bytes)> ship;
};

// Per-pipe execution context shared by every Process() call on that pipe.
struct StageEnv {
  sim::Engine* engine = nullptr;
  const hw::FsCosts* costs = nullptr;
  bool coalescing = false;
  int node = 0;                  // Home node of the pipe (trace lane).
  std::string component;         // "nicfs.<n>": trace category.
  obs::TraceBuffer* trace = nullptr;
  fslib::Validator* validator = nullptr;
  fslib::LogArea* log = nullptr;
  obs::Counter* validation_failures = nullptr;
};

class Stage {
 public:
  virtual ~Stage() = default;
  // Config key and metric/trace stage name.
  virtual const char* name() const = 0;
  // Transforms one chunk at `where`. Must be safe to call on failed chunks
  // (skip the transform, keep the order).
  virtual sim::Task<> Process(StageEnv& env, const Placement& where,
                              const ChunkPtr& chunk) = 0;
};

// Every stage name, in the only order a chain may list them.
inline constexpr std::string_view kStageNames[] = {"validate", "compress", "xor_encrypt",
                                                   "checksum"};

// The stage named `name`, or nullptr for an unknown name.
std::unique_ptr<Stage> MakeStage(std::string_view name);

// Splits "validate, compress,checksum" into trimmed names (empty items kept
// as empty strings so validation can reject them explicitly).
std::vector<std::string> ParseStageList(const std::string& csv);

// --- Wire-transform helpers (shared with the replica-side undo path) ----------

// Seal over wire bytes (CRC32C). Replicas recompute and compare.
uint64_t WireChecksum(std::span<const uint8_t> data);
// Involutive keystream XOR: applying it twice restores the input, so the same
// routine encrypts on the primary and decrypts on each replica.
void XorCipher(std::vector<uint8_t>* data);

// --- Built-in stages ----------------------------------------------------------

// Parse + permission/lease validation (§3.3.1). Always first.
class ValidateStage : public Stage {
 public:
  const char* name() const override { return "validate"; }
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

// LZW compression of the replication wire image (§5.4).
class CompressStage : public Stage {
 public:
  const char* name() const override { return "compress"; }
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

// CRC32C seal over the outgoing wire bytes; replicas verify on receipt.
// Always last, so the seal covers what is actually sent.
class ChecksumStage : public Stage {
 public:
  const char* name() const override { return "checksum"; }
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

// At-rest/in-flight scrambling of the wire bytes with an involutive XOR
// keystream (stand-in for a real cipher; the cost model carries the weight).
// Replicas undo it before decompression-independent use; it comes after
// compress so ciphertext never feeds LZW.
class XorEncryptStage : public Stage {
 public:
  const char* name() const override { return "xor_encrypt"; }
  sim::Task<> Process(StageEnv& env, const Placement& where,
                      const ChunkPtr& chunk) override;
};

}  // namespace linefs::pipeline

#endif  // SRC_PIPELINE_STAGE_H_
