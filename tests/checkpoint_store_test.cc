// Durability tests for the framed checkpoint format and the on-disk
// CheckpointStore: every byte-level truncation and every single-bit flip
// must surface as an error (never a crash or a silently wrong payload),
// and recovery must walk past corrupt generations.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/checkpoint_store.h"

namespace dbg4eth {
namespace {

namespace fs = std::filesystem;

std::string MakePayload(size_t n) {
  std::string payload;
  payload.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    payload.push_back(static_cast<char>((i * 131 + 7) & 0xff));
  }
  return payload;
}

std::string Frame(const std::string& payload) {
  std::ostringstream os;
  EXPECT_TRUE(WriteFramedCheckpoint(&os, payload).ok());
  return os.str();
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("dbg4eth_ckpt_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointStoreConfig Config(int retain = 3) {
    CheckpointStoreConfig config;
    config.directory = dir_.string();
    config.retain = retain;
    config.sync = false;  // Spare the IO; atomicity is rename-based anyway.
    return config;
  }

  fs::path dir_;
};

TEST(Crc32Test, MatchesTheStandardCheckValue) {
  // The canonical CRC-32/zlib check vector.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, ChainsAcrossBuffers) {
  const std::string data = MakePayload(300);
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t first = Crc32(data.data(), 100);
  const uint32_t chained = Crc32(data.data() + 100, 200, first);
  EXPECT_EQ(chained, whole);
}

TEST(CheckpointFrameTest, RoundTripsPayloads) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{257}, size_t{5000}}) {
    const std::string payload = MakePayload(n);
    std::stringstream stream(Frame(payload));
    auto read = ReadFramedCheckpoint(&stream);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.ValueOrDie(), payload);
  }
}

TEST(CheckpointFrameTest, UnframedStreamIsInvalidArgumentNotDataLoss) {
  std::stringstream garbage("this is not a checkpoint at all........");
  EXPECT_EQ(ReadFramedCheckpoint(&garbage).status().code(),
            StatusCode::kInvalidArgument);

  std::stringstream empty;
  EXPECT_EQ(ReadFramedCheckpoint(&empty).status().code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFrameTest, FutureFrameVersionIsRejected) {
  std::string framed = Frame("payload");
  framed[4] = static_cast<char>(kCheckpointFrameVersion + 1);  // LE version.
  std::stringstream stream(framed);
  EXPECT_EQ(ReadFramedCheckpoint(&stream).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointFrameTest, ImplausiblePayloadLengthIsDataLoss) {
  std::string framed = Frame("payload");
  framed[8 + 7] = '\x7f';  // Top byte of the u64 length -> absurd size.
  std::stringstream stream(framed);
  EXPECT_EQ(ReadFramedCheckpoint(&stream).status().code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFrameTest, ShortStreamCostsWhatItHoldsNotTheDeclaredLength) {
  // A header declaring 256 MiB followed by 8 bytes: the length is not
  // covered by the CRC, so the reader must not allocate what it declares.
  std::string framed = Frame("8 bytes!").substr(0, 16 + 8);
  const uint64_t declared = 256ull << 20;
  std::memcpy(framed.data() + 8, &declared, sizeof(declared));
  rusage before{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  std::stringstream stream(framed);
  EXPECT_EQ(ReadFramedCheckpoint(&stream).status().code(),
            StatusCode::kDataLoss);
  rusage after{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 16 * 1024)  // KiB
      << "max RSS grew by " << after.ru_maxrss - before.ru_maxrss << " KiB";
}

TEST(CheckpointFrameTest, TruncationSweepFailsAtEveryByteOffset) {
  const std::string payload = MakePayload(300);
  const std::string framed = Frame(payload);
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    std::stringstream stream(framed.substr(0, cut));
    auto read = ReadFramedCheckpoint(&stream);
    ASSERT_FALSE(read.ok()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
        << "prefix of " << cut << " bytes: " << read.status().ToString();
  }
  std::stringstream whole(framed);
  EXPECT_TRUE(ReadFramedCheckpoint(&whole).ok());
}

TEST(CheckpointFrameTest, BitFlipSweepIsDetectedAtEveryByte) {
  const std::string payload = MakePayload(300);
  const std::string framed = Frame(payload);
  for (size_t i = 0; i < framed.size(); ++i) {
    std::string tampered = framed;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x01);
    std::stringstream stream(tampered);
    auto read = ReadFramedCheckpoint(&stream);
    EXPECT_FALSE(read.ok()) << "bit flip at byte " << i << " went unnoticed";
  }
}

TEST_F(CheckpointStoreTest, SaveThenLoadLatestValidReturnsTheNewest) {
  auto opened = CheckpointStore::Open(Config());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& store = *opened.ValueOrDie();

  for (const std::string payload : {"first", "second", "third"}) {
    auto saved = store.Save([&payload](std::ostream* os) {
      os->write(payload.data(),
                static_cast<std::streamsize>(payload.size()));
      return Status::OK();
    });
    ASSERT_TRUE(saved.ok()) << saved.status().ToString();
    EXPECT_TRUE(fs::exists(saved.ValueOrDie()));
  }

  auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.ValueOrDie().payload, "third");
  // Atomic commit: no temp files linger.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".bin") << entry.path();
  }
}

TEST_F(CheckpointStoreTest, LoadLatestValidWalksPastCorruptGenerations) {
  auto opened = CheckpointStore::Open(Config());
  ASSERT_TRUE(opened.ok());
  auto& store = *opened.ValueOrDie();
  for (const std::string payload : {"old", "new"}) {
    ASSERT_TRUE(store.Save([&payload](std::ostream* os) {
                       *os << payload;
                       return Status::OK();
                     })
                    .ok());
  }
  const auto checkpoints = store.ListGenerations();  // Newest first.
  ASSERT_EQ(checkpoints.size(), 2u);

  // Truncate the newest to half its size: recovery costs one generation,
  // not the model.
  {
    std::ifstream in(checkpoints[0].path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    std::ofstream out(checkpoints[0].path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.ValueOrDie().payload, "old");

  // Flip a payload bit in the survivor as well: nothing valid remains.
  {
    std::fstream f(checkpoints[1].path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(17);  // Inside the payload region (16-byte header).
    char c;
    f.seekg(17);
    f.get(c);
    f.seekp(17);
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_EQ(store.LoadLatestValid().status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointStoreTest, ListGenerationsReportsSequencesNewestFirst) {
  auto opened = CheckpointStore::Open(Config());
  ASSERT_TRUE(opened.ok());
  auto& store = *opened.ValueOrDie();
  EXPECT_TRUE(store.ListGenerations().empty());
  EXPECT_EQ(store.LatestGeneration(), 0u);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Save([i](std::ostream* os) {
                       *os << "gen" << i;
                       return Status::OK();
                     })
                    .ok());
  }
  const auto generations = store.ListGenerations();
  ASSERT_EQ(generations.size(), 3u);
  EXPECT_EQ(generations[0].sequence, 3u);
  EXPECT_EQ(generations[1].sequence, 2u);
  EXPECT_EQ(generations[2].sequence, 1u);
  for (const auto& gen : generations) {
    EXPECT_TRUE(fs::exists(gen.path)) << gen.path;
  }
  EXPECT_EQ(store.LatestGeneration(), 3u);

  // Foreign files in the directory are not generations.
  std::ofstream(dir_ / "notes.txt") << "not a checkpoint";
  std::ofstream(dir_ / "ckpt-x.bin") << "bad sequence";
  EXPECT_EQ(store.ListGenerations().size(), 3u);
  EXPECT_EQ(store.LatestGeneration(), 3u);
}

TEST_F(CheckpointStoreTest, LoadLatestValidReportsTheSequenceItFellBackTo) {
  auto opened = CheckpointStore::Open(Config());
  ASSERT_TRUE(opened.ok());
  auto& store = *opened.ValueOrDie();
  for (const std::string payload : {"old", "new"}) {
    ASSERT_TRUE(store.Save([&payload](std::ostream* os) {
                       *os << payload;
                       return Status::OK();
                     })
                    .ok());
  }

  // Intact store: the loaded payload carries its generation metadata.
  auto loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().sequence, 2u);
  EXPECT_EQ(loaded.ValueOrDie().payload, "new");
  EXPECT_TRUE(fs::exists(loaded.ValueOrDie().path));

  // Corrupt the newest: the walk reports the generation it fell back to,
  // which is how the reload watcher tells "fell back" from "upgrade".
  const auto generations = store.ListGenerations();
  ASSERT_EQ(generations.size(), 2u);
  {
    std::fstream f(generations.front().path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(17);  // Inside the payload region (16-byte header).
    char c;
    f.seekg(17);
    f.get(c);
    f.seekp(17);
    f.put(static_cast<char>(c ^ 0x40));
  }
  loaded = store.LoadLatestValid();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().sequence, 1u);
  EXPECT_EQ(loaded.ValueOrDie().payload, "old");
  // The directory scan still sees both files; only the payload walk
  // knows the newest is bad.
  EXPECT_EQ(store.LatestGeneration(), 2u);
}

TEST_F(CheckpointStoreTest, RetentionPrunesBeyondTheWindow) {
  auto opened = CheckpointStore::Open(Config(/*retain=*/2));
  ASSERT_TRUE(opened.ok());
  auto& store = *opened.ValueOrDie();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Save([i](std::ostream* os) {
                       *os << "gen" << i;
                       return Status::OK();
                     })
                    .ok());
  }
  EXPECT_EQ(store.ListGenerations().size(), 2u);
  auto latest = store.LoadLatestValid();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.ValueOrDie().payload, "gen4");
}

TEST_F(CheckpointStoreTest, ReopeningResumesTheSequence) {
  {
    auto first = CheckpointStore::Open(Config());
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.ValueOrDie()->next_sequence(), 1u);
    ASSERT_TRUE(first.ValueOrDie()
                    ->Save([](std::ostream* os) {
                      *os << "v1";
                      return Status::OK();
                    })
                    .ok());
  }
  auto second = CheckpointStore::Open(Config());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie()->next_sequence(), 2u);
}

TEST_F(CheckpointStoreTest, WriterErrorsAbortTheSaveCleanly) {
  auto opened = CheckpointStore::Open(Config());
  ASSERT_TRUE(opened.ok());
  auto& store = *opened.ValueOrDie();
  auto saved = store.Save([](std::ostream*) {
    return Status::FailedPrecondition("model not trained");
  });
  EXPECT_EQ(saved.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(store.ListGenerations().empty());
  EXPECT_EQ(store.next_sequence(), 1u);  // Nothing committed.
}

TEST_F(CheckpointStoreTest, OpenValidatesItsConfig) {
  CheckpointStoreConfig config;
  config.directory = "";
  EXPECT_FALSE(CheckpointStore::Open(config).ok());
  config = Config();
  config.retain = 0;
  EXPECT_FALSE(CheckpointStore::Open(config).ok());
}

}  // namespace
}  // namespace dbg4eth
