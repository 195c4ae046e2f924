#include "common/checkpoint_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace dbg4eth {

namespace fs = std::filesystem;

namespace {

constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".bin";

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Sequence number encoded in a checkpoint file name, or 0 when the name
/// is not of the `ckpt-<seq>.bin` form.
uint64_t SequenceOf(const std::string& filename) {
  const size_t prefix_len = sizeof(kCheckpointPrefix) - 1;
  const size_t suffix_len = sizeof(kCheckpointSuffix) - 1;
  if (filename.size() <= prefix_len + suffix_len) return 0;
  if (filename.compare(0, prefix_len, kCheckpointPrefix) != 0) return 0;
  if (filename.compare(filename.size() - suffix_len, suffix_len,
                       kCheckpointSuffix) != 0) {
    return 0;
  }
  const std::string digits =
      filename.substr(prefix_len, filename.size() - prefix_len - suffix_len);
  uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

/// fsync an already-open descriptor path; best-effort on directories
/// (some filesystems reject directory fsync — not fatal).
Status SyncPath(const std::string& path, bool is_directory) {
  const int fd = ::open(path.c_str(), is_directory ? O_RDONLY : O_WRONLY);
  if (fd < 0) {
    if (is_directory) return Status::OK();
    return Status::Internal("open for fsync failed: " + path + ": " +
                            std::strerror(errno));
  }
  static obs::Histogram* fsync_hist =
      obs::MetricsRegistry::Global()->HistogramAt(
          "ckpt_fsync_us", "fsync wall time per checkpoint file/directory");
  obs::ScopedTimer fsync_timer(fsync_hist);
  const int rc = ::fsync(fd);
  fsync_timer.Stop();
  ::close(fd);
  if (rc != 0 && !is_directory) {
    return Status::Internal("fsync failed: " + path + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

Status WriteFramedCheckpoint(std::ostream* os, const std::string& payload) {
  DBG4ETH_FAIL_POINT("ckpt.write");
  if (payload.size() > kMaxCheckpointPayload) {
    return Status::InvalidArgument("checkpoint payload exceeds 1 GiB");
  }
  BinaryWriter writer(os);
  writer.WriteU32(kCheckpointMagic);
  writer.WriteU32(kCheckpointFrameVersion);
  writer.WriteU64(payload.size());
  os->write(payload.data(), static_cast<std::streamsize>(payload.size()));
  writer.WriteU32(Crc32(payload.data(), payload.size()));
  if (!os->good()) return Status::Internal("checkpoint frame write failed");
  return Status::OK();
}

Result<std::string> ReadFramedCheckpoint(std::istream* is) {
  DBG4ETH_FAIL_POINT("ckpt.read");
  BinaryReader reader(is);
  uint32_t magic = 0;
  if (!reader.ReadU32(&magic).ok()) {
    return Status::DataLoss("checkpoint shorter than the frame magic");
  }
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument(
        "stream is not a framed checkpoint (bad magic)");
  }
  uint32_t version = 0;
  uint64_t length = 0;
  if (!reader.ReadU32(&version).ok() || !reader.ReadU64(&length).ok()) {
    return Status::DataLoss("truncated checkpoint frame header");
  }
  if (version != kCheckpointFrameVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported checkpoint frame version %u", version));
  }
  if (length > kMaxCheckpointPayload) {
    return Status::DataLoss(
        "corrupt checkpoint frame: implausible payload length");
  }
  // The CRC does not cover the length, so the payload grows in bounded
  // steps: a short stream costs what it holds plus one step, not the
  // declared length.
  constexpr uint64_t kReadStep = 1 << 20;
  std::string payload;
  while (payload.size() < length) {
    const size_t held = payload.size();
    const size_t step = std::min(kReadStep, length - held);
    payload.resize(held + step);
    is->read(payload.data() + held, static_cast<std::streamsize>(step));
    if (static_cast<size_t>(is->gcount()) != step) {
      return Status::DataLoss(StrFormat(
          "truncated checkpoint payload: expected %llu bytes, got %llu",
          static_cast<unsigned long long>(length),
          static_cast<unsigned long long>(held + is->gcount())));
    }
  }
  uint32_t stored_crc = 0;
  if (!reader.ReadU32(&stored_crc).ok()) {
    return Status::DataLoss("checkpoint frame is missing its CRC trailer");
  }
  const uint32_t computed = Crc32(payload.data(), payload.size());
  if (computed != stored_crc) {
    return Status::DataLoss(StrFormat(
        "checkpoint CRC mismatch: stored %08x, computed %08x", stored_crc,
        computed));
  }
  return payload;
}

Result<std::unique_ptr<CheckpointStore>> CheckpointStore::Open(
    const CheckpointStoreConfig& config) {
  if (config.directory.empty()) {
    return Status::InvalidArgument("checkpoint directory must not be empty");
  }
  if (config.retain < 1) {
    return Status::InvalidArgument("checkpoint retention must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(config.directory, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint directory " +
                            config.directory + ": " + ec.message());
  }
  std::unique_ptr<CheckpointStore> store(new CheckpointStore(config));
  uint64_t max_seq = 0;
  for (const auto& entry : fs::directory_iterator(config.directory, ec)) {
    max_seq = std::max(max_seq, SequenceOf(entry.path().filename().string()));
  }
  store->next_sequence_ = max_seq + 1;
  return store;
}

std::vector<CheckpointStore::Generation> CheckpointStore::ListGenerations()
    const {
  std::vector<Generation> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    const uint64_t seq = SequenceOf(entry.path().filename().string());
    if (seq > 0) found.push_back({seq, entry.path().string()});
  }
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    return a.sequence > b.sequence;
  });
  return found;
}

uint64_t CheckpointStore::LatestGeneration() const {
  uint64_t latest = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    latest = std::max(latest, SequenceOf(entry.path().filename().string()));
  }
  return latest;
}

Result<std::string> CheckpointStore::Save(
    const std::function<Status(std::ostream*)>& writer) {
  static obs::Histogram* write_hist =
      obs::MetricsRegistry::Global()->HistogramAt(
          "ckpt_write_us",
          "End-to-end checkpoint save wall time (serialize, write, fsync, "
          "rename, prune)");
  static obs::Counter* saves_total = obs::MetricsRegistry::Global()->CounterAt(
      "ckpt_saves_total", "Checkpoint generations written durably");
  obs::ScopedTimer write_timer(write_hist);
  std::ostringstream payload_stream;
  DBG4ETH_RETURN_NOT_OK(writer(&payload_stream));
  const std::string payload = payload_stream.str();

  const uint64_t seq = next_sequence_;
  const std::string name =
      StrFormat("%s%08llu%s", kCheckpointPrefix,
                static_cast<unsigned long long>(seq), kCheckpointSuffix);
  const fs::path final_path = fs::path(config_.directory) / name;
  const fs::path tmp_path = final_path.string() + ".tmp";

  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open " + tmp_path.string());
    }
    DBG4ETH_RETURN_NOT_OK(WriteFramedCheckpoint(&out, payload));
    out.flush();
    if (!out.good()) {
      return Status::Internal("write to " + tmp_path.string() + " failed");
    }
  }
  if (config_.sync) {
    DBG4ETH_RETURN_NOT_OK(SyncPath(tmp_path.string(), /*is_directory=*/false));
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return Status::Internal("rename to " + final_path.string() +
                            " failed: " + ec.message());
  }
  if (config_.sync) {
    (void)SyncPath(config_.directory, /*is_directory=*/true);
  }
  next_sequence_ = seq + 1;

  // Prune generations beyond the retention window (newest first).
  const std::vector<Generation> all = ListGenerations();
  for (size_t i = static_cast<size_t>(config_.retain); i < all.size(); ++i) {
    fs::remove(all[i].path, ec);
  }
  saves_total->Inc();
  return final_path.string();
}

Result<CheckpointStore::LoadedCheckpoint> CheckpointStore::LoadLatestValid()
    const {
  static obs::Histogram* walk_hist =
      obs::MetricsRegistry::Global()->HistogramAt(
          "ckpt_recovery_walk_us",
          "Wall time of the newest-first recovery walk in LoadLatestValid");
  static obs::Counter* corrupt_total =
      obs::MetricsRegistry::Global()->CounterAt(
          "ckpt_corrupt_generations_total",
          "Checkpoint generations skipped during recovery as unreadable or "
          "corrupt");
  obs::ScopedTimer walk_timer(walk_hist);
  for (const Generation& gen : ListGenerations()) {
    std::ifstream in(gen.path, std::ios::binary);
    if (!in) {
      corrupt_total->Inc();
      DBG4ETH_LOG(Warning) << "checkpoint " << gen.path
                           << " unreadable; trying an older one";
      continue;
    }
    Result<std::string> payload = ReadFramedCheckpoint(&in);
    if (payload.ok()) {
      return LoadedCheckpoint{gen.sequence, gen.path,
                              std::move(payload).ValueOrDie()};
    }
    corrupt_total->Inc();
    DBG4ETH_LOG(Warning) << "checkpoint " << gen.path << " skipped: "
                         << payload.status().ToString();
  }
  return Status::NotFound("no valid checkpoint in " + config_.directory);
}

}  // namespace dbg4eth
