#ifndef DBG4ETH_COMMON_CHECKPOINT_STORE_H_
#define DBG4ETH_COMMON_CHECKPOINT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dbg4eth {

/// CRC-32 (IEEE 802.3 reflected polynomial, the zlib convention) of
/// `data[0..n)`. Chainable: pass a previous return value as `seed` to
/// extend the checksum over multiple buffers.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// \brief Self-describing checkpoint frame layered over the raw
/// BinaryWriter/BinaryReader streams.
///
/// Layout (all integers little-endian via BinaryWriter):
///   u32 magic   = kCheckpointMagic
///   u32 version = kCheckpointFrameVersion
///   u64 payload length
///   payload bytes
///   u32 CRC-32 of the payload
///
/// A frame makes corruption detectable *before* payload parsing: a
/// truncated file fails the length check, a flipped byte fails the CRC,
/// and both surface as kDataLoss instead of a parser crash or a silently
/// wrong model. A stream that does not start with the magic is not a
/// checkpoint (kInvalidArgument).
inline constexpr uint32_t kCheckpointMagic = 0xd5b64e7f;
inline constexpr uint32_t kCheckpointFrameVersion = 1;

/// Upper bound on a sane payload (1 GiB); larger declared lengths are
/// treated as corruption rather than honored as allocations.
inline constexpr uint64_t kMaxCheckpointPayload = 1ull << 30;

/// Wraps `payload` in a frame and writes it to `os`.
Status WriteFramedCheckpoint(std::ostream* os, const std::string& payload);

/// Reads and validates one frame, returning its payload. Corruption
/// (bad length, truncation, CRC mismatch) returns kDataLoss; a stream
/// that is not framed at all returns kInvalidArgument.
Result<std::string> ReadFramedCheckpoint(std::istream* is);

/// \brief Sizing and placement of a CheckpointStore.
struct CheckpointStoreConfig {
  /// Directory holding the checkpoint files (created on Open).
  std::string directory;
  /// Newest checkpoints kept on disk; older ones are pruned after each
  /// successful Save. Minimum 1.
  int retain = 3;
  /// fsync the file before rename and the directory after (crash
  /// durability). Tests may disable to spare IO.
  bool sync = true;
};

/// \brief Durable, versioned on-disk checkpoint sequence.
///
/// Each Save serializes through the caller's writer into a framed file
/// `ckpt-<seq>.bin`, written as `.tmp` first and atomically renamed into
/// place (with fsync on the file and directory when `sync` is set), so a
/// crash mid-write never leaves a half-visible checkpoint. LoadLatestValid
/// walks the sequence newest-first and returns the first payload whose
/// frame validates, logging the reason each corrupt or truncated file is
/// skipped — one bad byte in the newest checkpoint costs one generation,
/// not the model.
class CheckpointStore {
 public:
  /// Creates the directory if needed and scans existing checkpoints.
  static Result<std::unique_ptr<CheckpointStore>> Open(
      const CheckpointStoreConfig& config);

  /// Serializes a payload via `writer`, commits it as the next checkpoint
  /// and prunes generations beyond `retain`. Returns the committed path.
  Result<std::string> Save(
      const std::function<Status(std::ostream*)>& writer);

  /// \brief One on-disk checkpoint generation (no payload read).
  struct Generation {
    uint64_t sequence = 0;
    std::string path;
  };

  /// \brief A validated payload together with the generation it came from.
  struct LoadedCheckpoint {
    uint64_t sequence = 0;
    std::string path;
    std::string payload;
  };

  /// On-disk generations, newest first. A directory scan only — payloads
  /// are not opened, so pollers (e.g. the serving-side reload watcher) can
  /// call this every tick cheaply.
  std::vector<Generation> ListGenerations() const;

  /// Sequence number of the newest on-disk generation, 0 when the store is
  /// empty. Same cost as ListGenerations (one directory scan, no reads).
  uint64_t LatestGeneration() const;

  /// The newest checkpoint whose frame validates, with the generation it
  /// came from: the reload watcher needs the sequence to tell "newest is
  /// corrupt, fell back to one I already serve" from a genuine upgrade.
  /// Corrupt files are skipped with a logged reason; NotFound when none is
  /// valid.
  Result<LoadedCheckpoint> LoadLatestValid() const;

  /// Sequence number the next Save will commit as.
  uint64_t next_sequence() const { return next_sequence_; }

  const CheckpointStoreConfig& config() const { return config_; }

 private:
  explicit CheckpointStore(const CheckpointStoreConfig& config)
      : config_(config) {}

  CheckpointStoreConfig config_;
  uint64_t next_sequence_ = 1;
};

}  // namespace dbg4eth

#endif  // DBG4ETH_COMMON_CHECKPOINT_STORE_H_
