#include "src/pipeline/stage.h"

#include <algorithm>
#include <cstdio>

#include "src/compress/lzw.h"
#include "src/fslib/oplog.h"
#include "src/fslib/types.h"
#include "src/sim/sync.h"

namespace linefs::pipeline {

namespace {

sim::Priority ChunkPriority(const ChunkPtr& chunk) {
  return chunk->urgent ? sim::Priority::kRealtime : sim::Priority::kNormal;
}

// Current wire representation the transform stages operate on: compressed
// bytes if a compress stage already ran, else the raw image.
std::span<const uint8_t> WireSource(const ChunkPtr& chunk) {
  if (chunk->wire.empty()) {
    return chunk->range.image;
  }
  return chunk->wire;
}

// Bytes a transform stage touches; falls back to the logical chunk size when
// payloads are elided so the cost model still charges the stage.
uint64_t TransformBytes(const ChunkPtr& chunk) {
  std::span<const uint8_t> src = WireSource(chunk);
  return src.empty() ? chunk->bytes() : src.size();
}

}  // namespace

uint64_t WireChecksum(std::span<const uint8_t> data) {
  return fslib::Crc32c(data.data(), data.size());
}

void XorCipher(std::vector<uint8_t>* data) {
  // Deterministic keystream from a fixed session key: XOR is involutive, so
  // the identical routine encrypts at the primary and decrypts at replicas.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  size_t i = 0;
  while (i < data->size()) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t ks = state ^ (state >> 31);
    for (int b = 0; b < 8 && i < data->size(); ++b, ++i) {
      (*data)[i] ^= static_cast<uint8_t>(ks >> (8 * b));
    }
  }
}

// --- ValidateStage ------------------------------------------------------------

const Stage::Info& ValidateStage::info() const {
  static const Info kInfo{"validate", /*optional=*/false, /*scalable=*/true,
                          /*shared_fanout=*/true};
  return kInfo;
}

sim::Task<> ValidateStage::Process(StageEnv& env, const Placement& where,
                                   const ChunkPtr& chunk) {
  obs::Span span(env.trace, env.component, "validate", where.node, chunk->client,
                 chunk->no, chunk->ctx);
  // Downstream stages (compress/transfer/publish) nest under the validation
  // span, which itself nests under fetch.
  chunk->ctx = span.context();
  // A range whose headers did not parse at fetch arrives already failed.
  Result<std::vector<fslib::ParsedEntry>> parsed(ErrorCode::kCorrupt, "bad log header");
  if (!chunk->failed) {
    parsed = env.log->Entries(chunk->from, chunk->to, chunk->range);
  }
  uint64_t n = parsed.ok() ? parsed->size() : 1;
  uint64_t cycles = env.costs->validate_entry_cycles * n +
                    static_cast<uint64_t>(env.costs->validate_cycles_per_byte *
                                          static_cast<double>(chunk->bytes()));
  if (env.coalescing) {
    cycles += env.costs->coalesce_entry_cycles * n;
  }
  co_await where.pool->RunCycles(cycles, ChunkPriority(chunk), where.account);
  if (!parsed.ok()) {
    env.validation_failures->Increment();
    chunk->failed = true;
  } else {
    Status st = env.validator->Validate(*parsed);
    if (!st.ok()) {
      env.validation_failures->Increment();
      chunk->failed = true;
      std::fprintf(stderr, "nicfs[%d]: VALIDATION of client %d chunk %llu failed: %s\n",
                   env.node, chunk->client, (unsigned long long)chunk->no,
                   st.ToString().c_str());
    } else {
      chunk->entries = std::move(*parsed);
    }
  }
}

// --- CompressStage ------------------------------------------------------------

const Stage::Info& CompressStage::info() const {
  static const Info kInfo{"compress", /*optional=*/true, /*scalable=*/true,
                          /*shared_fanout=*/false};
  return kInfo;
}

sim::Task<> CompressStage::Process(StageEnv& env, const Placement& where,
                                   const ChunkPtr& chunk) {
  if (chunk->failed || chunk->range.image.empty()) {
    co_return;
  }
  obs::Span span(env.trace, env.component, "compress", where.node, chunk->client,
                 chunk->no, chunk->ctx);
  // Parallel compression: the chunk is split across the placement's cores.
  uint64_t total_cycles = static_cast<uint64_t>(env.costs->compress_cycles_per_byte *
                                                static_cast<double>(chunk->bytes()));
  int threads = std::max(1, env.compression_threads);
  std::vector<sim::Task<>> shards;
  shards.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    shards.push_back(where.pool->RunCycles(total_cycles / threads, sim::Priority::kNormal,
                                           where.account));
  }
  co_await sim::AwaitAll(env.engine, std::move(shards));
  chunk->wire = compress::LzwCompress(chunk->range.image);
  chunk->wire_compressed = true;
}

// --- ChecksumStage ------------------------------------------------------------

const Stage::Info& ChecksumStage::info() const {
  static const Info kInfo{"checksum", /*optional=*/true, /*scalable=*/true,
                          /*shared_fanout=*/false};
  return kInfo;
}

sim::Task<> ChecksumStage::Process(StageEnv& env, const Placement& where,
                                   const ChunkPtr& chunk) {
  if (chunk->failed) {
    co_return;
  }
  obs::Span span(env.trace, env.component, "checksum", where.node, chunk->client,
                 chunk->no, chunk->ctx);
  co_await where.pool->RunCycles(
      static_cast<uint64_t>(env.costs->checksum_cycles_per_byte *
                            static_cast<double>(TransformBytes(chunk))),
      ChunkPriority(chunk), where.account);
  std::span<const uint8_t> src = WireSource(chunk);
  if (!src.empty()) {
    chunk->wire_checksum = WireChecksum(src);
    chunk->wire_checksummed = true;
  }
}

// --- XorEncryptStage ----------------------------------------------------------

const Stage::Info& XorEncryptStage::info() const {
  static const Info kInfo{"xor_encrypt", /*optional=*/true, /*scalable=*/true,
                          /*shared_fanout=*/false};
  return kInfo;
}

sim::Task<> XorEncryptStage::Process(StageEnv& env, const Placement& where,
                                     const ChunkPtr& chunk) {
  if (chunk->failed) {
    co_return;
  }
  obs::Span span(env.trace, env.component, "xor_encrypt", where.node, chunk->client,
                 chunk->no, chunk->ctx);
  co_await where.pool->RunCycles(
      static_cast<uint64_t>(env.costs->encrypt_cycles_per_byte *
                            static_cast<double>(TransformBytes(chunk))),
      ChunkPriority(chunk), where.account);
  if (chunk->wire.empty() && !chunk->range.image.empty()) {
    // First transform: the wire gets its own copy of the raw image.
    chunk->wire.assign(chunk->range.image.begin(), chunk->range.image.end());
  }
  if (!chunk->wire.empty()) {
    XorCipher(&chunk->wire);
    chunk->wire_encrypted = true;
  }
}

}  // namespace linefs::pipeline
