// Crash-safe resumable training: a run killed at ANY epoch boundary and
// continued with ResumeTrain must produce a model bit-identical to an
// uninterrupted Train — for both the sequential and data-parallel
// trainers, and even when the newest snapshot on disk is corrupt.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/checkpoint_store.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "features/node_features.h"
#include "ml/split.h"

namespace dbg4eth {
namespace core {
namespace {

namespace fs = std::filesystem;

class ResumeTrainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eth::LedgerConfig lc;
    lc.num_normal = 400;
    lc.num_exchange = 12;
    lc.num_ico_wallet = 8;
    lc.num_mining = 6;
    lc.num_phish_hack = 12;
    lc.num_bridge = 6;
    lc.num_defi = 6;
    lc.duration_days = 90.0;
    lc.seed = 77;
    ledger_ = new eth::LedgerSimulator(lc);
    ASSERT_TRUE(ledger_->Generate().ok());

    eth::DatasetConfig dc;
    dc.target = eth::AccountClass::kExchange;
    dc.max_positives = 10;
    dc.sampling.top_k = 4;
    dc.sampling.max_nodes = 30;
    dc.num_time_slices = 4;
    dc.seed = 5;
    auto built = eth::BuildDataset(*ledger_, dc);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    raw_dataset_ = new eth::SubgraphDataset(std::move(built).ValueOrDie());

    Rng split_rng(123);
    split_ = new ml::SplitIndices(
        ml::StratifiedSplit(raw_dataset_->labels(), 0.6, 0.2, &split_rng));
  }

  static void TearDownTestSuite() {
    delete split_;
    split_ = nullptr;
    delete raw_dataset_;
    raw_dataset_ = nullptr;
    delete ledger_;
    ledger_ = nullptr;
  }

  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("dbg4eth_resume_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Tiny but complete model: 3 GSG + 2 LDG epochs = 5 epoch boundaries.
  static Dbg4EthConfig TinyConfig(int num_threads) {
    Dbg4EthConfig config;
    config.gsg.hidden_dim = 12;
    config.gsg.num_heads = 2;
    config.gsg.epochs = 3;
    config.gsg.batch_size = 8;
    config.gsg.num_threads = num_threads;
    config.ldg.hidden_dim = 12;
    config.ldg.num_time_slices = 4;
    config.ldg.first_level_clusters = 4;
    config.ldg.epochs = 2;
    config.ldg.num_threads = num_threads;
    config.gbdt.num_trees = 10;
    config.gbdt.tree.min_samples_leaf = 2;
    return config;
  }

  static constexpr int kTotalEpochs = 5;  // gsg.epochs + ldg.epochs

  CheckpointStoreConfig StoreConfig() {
    CheckpointStoreConfig config;
    config.directory = dir_.string();
    config.retain = 50;  // Keep everything; retention is tested elsewhere.
    config.sync = false;
    return config;
  }

  /// Full serialized model: byte equality here is bit-identity of every
  /// parameter, scaler, calibrator and the classifier head at once.
  static std::string SaveBytes(const Dbg4Eth& model) {
    std::ostringstream os;
    EXPECT_TRUE(model.Save(&os).ok());
    return os.str();
  }

  /// Reference: one uninterrupted run on a fresh raw copy of the dataset.
  static std::string UninterruptedBytes(int num_threads) {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth model(TinyConfig(num_threads));
    Status st = model.Train(&ds, *split_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return SaveBytes(model);
  }

  /// Payload of the newest snapshot a run of `config` preempted after
  /// `kill_after` epochs commits, in a fresh store.
  std::string SnapshotPayload(int kill_after,
                              const Dbg4EthConfig& config = TinyConfig(1)) {
    fs::remove_all(dir_);
    auto store = CheckpointStore::Open(StoreConfig());
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    TrainSnapshotOptions options;
    options.store = store.ValueOrDie().get();
    options.max_epochs_this_run = kill_after;
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth interrupted(config);
    auto progress = interrupted.TrainWithSnapshots(&ds, *split_, options);
    EXPECT_TRUE(progress.ok()) << progress.status().ToString();
    auto latest = store.ValueOrDie()->LoadLatestValid();
    EXPECT_TRUE(latest.ok()) << latest.status().ToString();
    return latest.ok() ? latest.ValueOrDie().payload : "";
  }

  /// Commits `payload` through the store in a valid frame, so only the
  /// TrainState parser sees what is in it.
  static void Commit(CheckpointStore* store, const std::string& payload) {
    ASSERT_TRUE(store
                    ->Save([&](std::ostream* os) {
                      os->write(payload.data(),
                                static_cast<std::streamsize>(payload.size()));
                      return Status::OK();
                    })
                    .ok());
  }

  static eth::LedgerSimulator* ledger_;
  static eth::SubgraphDataset* raw_dataset_;
  static ml::SplitIndices* split_;
  fs::path dir_;
};

eth::LedgerSimulator* ResumeTrainTest::ledger_ = nullptr;
eth::SubgraphDataset* ResumeTrainTest::raw_dataset_ = nullptr;
ml::SplitIndices* ResumeTrainTest::split_ = nullptr;

// The tentpole guarantee: kill after epoch 1 / mid-run / after the last
// epoch, under the sequential and the 4-thread data-parallel trainer, and
// the resumed model is byte-for-byte the uninterrupted one.
TEST_F(ResumeTrainTest, KillAndResumeMatrixIsBitIdentical) {
  for (const int num_threads : {1, 4}) {
    const std::string reference = UninterruptedBytes(num_threads);
    for (const int kill_after : {1, 3, kTotalEpochs}) {
      fs::remove_all(dir_);
      auto store = CheckpointStore::Open(StoreConfig());
      ASSERT_TRUE(store.ok()) << store.status().ToString();

      // Preempted first run: the budget stops it at `kill_after` epochs.
      TrainSnapshotOptions options;
      options.store = store.ValueOrDie().get();
      options.snapshot_every_epochs = 1;
      options.max_epochs_this_run = kill_after;
      {
        eth::SubgraphDataset ds = *raw_dataset_;
        Dbg4Eth interrupted(TinyConfig(num_threads));
        auto progress = interrupted.TrainWithSnapshots(&ds, *split_, options);
        ASSERT_TRUE(progress.ok()) << progress.status().ToString();
        EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kPreempted);
      }

      // Fresh process: new model object, new RAW dataset copy, unlimited
      // budget. Must finish and match the reference bit for bit.
      options.max_epochs_this_run = 0;
      eth::SubgraphDataset ds = *raw_dataset_;
      Dbg4Eth resumed(TinyConfig(num_threads));
      auto progress = resumed.ResumeTrain(&ds, options);
      ASSERT_TRUE(progress.ok())
          << "threads=" << num_threads << " kill_after=" << kill_after
          << ": " << progress.status().ToString();
      EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kComplete);
      EXPECT_EQ(SaveBytes(resumed), reference)
          << "threads=" << num_threads << " kill_after=" << kill_after;
    }
  }
}

// The data-parallel trainers are bit-identical across thread counts, so
// resuming on a different machine shape (1 thread -> 4 threads) is the one
// config change that is allowed — and it still matches the reference.
TEST_F(ResumeTrainTest, ResumeWithDifferentThreadCountIsBitIdentical) {
  const std::string reference = UninterruptedBytes(/*num_threads=*/1);
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.max_epochs_this_run = 2;
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth interrupted(TinyConfig(/*num_threads=*/1));
    auto progress = interrupted.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kPreempted);
  }

  options.max_epochs_this_run = 0;
  eth::SubgraphDataset ds = *raw_dataset_;
  Dbg4Eth resumed(TinyConfig(/*num_threads=*/4));
  auto progress = resumed.ResumeTrain(&ds, options);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kComplete);
  EXPECT_EQ(SaveBytes(resumed), reference);
}

// A multi-allocation schedule (budget 2 per run, like back-to-back SLURM
// slices): preempt, resume, preempt, resume ... until complete.
TEST_F(ResumeTrainTest, ChainedPreemptionsConvergeToTheSameModel) {
  const std::string reference = UninterruptedBytes(/*num_threads=*/1);
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.max_epochs_this_run = 2;
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth first(TinyConfig(/*num_threads=*/1));
    auto progress = first.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kPreempted);
  }

  std::string final_bytes;
  bool complete = false;
  for (int attempt = 0; attempt < 10 && !complete; ++attempt) {
    eth::SubgraphDataset ds = *raw_dataset_;  // fresh raw copy per process
    Dbg4Eth model(TinyConfig(/*num_threads=*/1));
    auto progress = model.ResumeTrain(&ds, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    if (progress.ValueOrDie() == TrainProgress::kComplete) {
      complete = true;
      final_bytes = SaveBytes(model);
    }
  }
  ASSERT_TRUE(complete) << "did not converge within 10 allocations";
  EXPECT_EQ(final_bytes, reference);
}

// One bad byte in the newest snapshot costs one epoch of recomputation,
// not the run: resume falls back to the previous valid generation and the
// final model is still bit-identical.
TEST_F(ResumeTrainTest, ResumeSkipsCorruptNewestSnapshot) {
  const std::string reference = UninterruptedBytes(/*num_threads=*/1);
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.snapshot_every_epochs = 1;
  options.max_epochs_this_run = 3;
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth interrupted(TinyConfig(/*num_threads=*/1));
    auto progress = interrupted.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kPreempted);
  }

  // Flip one byte in the middle of the newest snapshot (a torn or
  // bit-rotted write that survived the rename).
  const auto generations = store.ValueOrDie()->ListGenerations();
  ASSERT_GE(generations.size(), 2u);
  {
    fs::path newest = generations.front().path;
    std::fstream file(newest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    const auto size = fs::file_size(newest);
    file.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size / 2));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }

  options.max_epochs_this_run = 0;
  eth::SubgraphDataset ds = *raw_dataset_;
  Dbg4Eth resumed(TinyConfig(/*num_threads=*/1));
  auto progress = resumed.ResumeTrain(&ds, options);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kComplete);
  EXPECT_EQ(SaveBytes(resumed), reference);
}

// Cadence: with snapshot_every_epochs = 2 and 5 epoch boundaries, exactly
// the boundaries at 2 and 4 completed epochs commit a generation.
TEST_F(ResumeTrainTest, SnapshotCadenceIsRespected) {
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.snapshot_every_epochs = 2;
  eth::SubgraphDataset ds = *raw_dataset_;
  Dbg4Eth model(TinyConfig(/*num_threads=*/1));
  auto progress = model.TrainWithSnapshots(&ds, *split_, options);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kComplete);
  EXPECT_EQ(store.ValueOrDie()->ListGenerations().size(), 2u);
}

// The resume gate: every architecture or hyperparameter difference from
// the snapshot is rejected with a clear error; only num_threads may vary.
TEST_F(ResumeTrainTest, ResumeRejectsConfigMismatch) {
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.max_epochs_this_run = 2;
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth interrupted(TinyConfig(/*num_threads=*/1));
    auto progress = interrupted.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kPreempted);
  }
  options.max_epochs_this_run = 0;

  {
    Dbg4EthConfig changed = TinyConfig(/*num_threads=*/1);
    changed.gsg.learning_rate *= 2.0;
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth model(changed);
    auto progress = model.ResumeTrain(&ds, options);
    ASSERT_FALSE(progress.ok());
    EXPECT_EQ(progress.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Dbg4EthConfig changed = TinyConfig(/*num_threads=*/1);
    changed.gsg.hidden_dim = 16;
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth model(changed);
    auto progress = model.ResumeTrain(&ds, options);
    ASSERT_FALSE(progress.ok());
    EXPECT_EQ(progress.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Dbg4EthConfig changed = TinyConfig(/*num_threads=*/1);
    changed.gsg.epochs += 1;
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth model(changed);
    auto progress = model.ResumeTrain(&ds, options);
    ASSERT_FALSE(progress.ok());
    EXPECT_EQ(progress.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Other augmentation views draw other edge drops in the remaining GSG
    // epochs, so the resumed model would silently diverge.
    Dbg4EthConfig changed = TinyConfig(/*num_threads=*/1);
    changed.gsg.view1.edge_drop_prob += 0.1;
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth model(changed);
    auto progress = model.ResumeTrain(&ds, options);
    ASSERT_FALSE(progress.ok());
    EXPECT_EQ(progress.status().code(), StatusCode::kInvalidArgument);
  }
}

// A TrainState whose normalizer has the wrong width (a snapshot from a
// build with another feature set, or a frame whose CRC was recomputed over
// bad bytes) must fail ResumeTrain with a Status before any instance is
// standardized, as Load does for a model checkpoint; it must not abort in
// FeatureNormalizer::Apply.
TEST_F(ResumeTrainTest, ResumeRejectsANormalizerOfTheWrongWidth) {
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.max_epochs_this_run = 1;
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth interrupted(TinyConfig(/*num_threads=*/1));
    auto progress = interrupted.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kPreempted);
  }

  // Rewrite the newest TrainState with a 14-column normalizer. The
  // normalizer follows the "split" tag and the three split index vectors.
  auto latest = store.ValueOrDie()->LoadLatestValid();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  const std::string payload = latest.ValueOrDie().payload;
  std::ostringstream tag_bytes;
  BinaryWriter(&tag_bytes).WriteString("split");
  const size_t split_at = payload.find(tag_bytes.str());
  ASSERT_NE(split_at, std::string::npos);
  ASSERT_EQ(split_at, payload.rfind(tag_bytes.str()));
  std::istringstream body(payload.substr(split_at));
  BinaryReader reader(&body);
  std::string tag;
  std::vector<int> train, val, test;
  std::vector<double> means, stds;
  ASSERT_TRUE(reader.ReadString(&tag).ok());
  ASSERT_TRUE(reader.ReadIntVector(&train).ok());
  ASSERT_TRUE(reader.ReadIntVector(&val).ok());
  ASSERT_TRUE(reader.ReadIntVector(&test).ok());
  const size_t normalizer_at = split_at + static_cast<size_t>(body.tellg());
  ASSERT_TRUE(reader.ReadDoubleVector(&means).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&stds).ok());
  const size_t rest_at = split_at + static_cast<size_t>(body.tellg());
  ASSERT_EQ(means.size(), static_cast<size_t>(features::kNumFeatures));
  means.pop_back();
  stds.pop_back();
  std::ostringstream narrow;
  BinaryWriter writer(&narrow);
  writer.WriteDoubleVector(means);
  writer.WriteDoubleVector(stds);
  const std::string rewritten = payload.substr(0, normalizer_at) +
                                narrow.str() + payload.substr(rest_at);
  ASSERT_TRUE(store.ValueOrDie()
                  ->Save([&](std::ostream* os) {
                    os->write(rewritten.data(),
                              static_cast<std::streamsize>(rewritten.size()));
                    return Status::OK();
                  })
                  .ok());

  options.max_epochs_this_run = 0;
  eth::SubgraphDataset ds = *raw_dataset_;
  Dbg4Eth resumed(TinyConfig(/*num_threads=*/1));
  auto progress = resumed.ResumeTrain(&ds, options);
  ASSERT_FALSE(progress.ok());
  EXPECT_EQ(progress.status().code(), StatusCode::kDataLoss);
  // Nothing was standardized: the dataset is still the raw one.
  ASSERT_EQ(ds.instances.size(), raw_dataset_->instances.size());
  for (size_t i = 0; i < ds.instances.size(); ++i) {
    EXPECT_TRUE(AlmostEqual(ds.instances[i].gsg.node_features,
                            raw_dataset_->instances[i].gsg.node_features,
                            /*tol=*/0.0))
        << "instance " << i << " was standardized";
  }
}

TEST_F(ResumeTrainTest, ResumeRequiresAStoreWithASnapshot) {
  TrainSnapshotOptions options;  // no store
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth model(TinyConfig(/*num_threads=*/1));
    EXPECT_FALSE(model.ResumeTrain(&ds, options).ok());
  }

  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  options.store = store.ValueOrDie().get();
  eth::SubgraphDataset ds = *raw_dataset_;
  Dbg4Eth model(TinyConfig(/*num_threads=*/1));
  auto progress = model.ResumeTrain(&ds, options);
  ASSERT_FALSE(progress.ok());
  EXPECT_EQ(progress.status().code(), StatusCode::kNotFound);
}

// The GSG objective indexes the dataset with every entry of the restored
// shuffle order, so a TrainState whose order is not a permutation of the
// session's indices (an entry past the dataset, or one listed twice) must
// fail ResumeTrain with a Status instead of reading out of bounds.
TEST_F(ResumeTrainTest, ResumeRejectsAnOrderThatIsNotAPermutation) {
  const std::string payload = SnapshotPayload(/*kill_after=*/1);
  std::ostringstream tag_bytes;
  BinaryWriter(&tag_bytes).WriteString("gsg_train_session");
  const size_t tag_at = payload.find(tag_bytes.str());
  ASSERT_NE(tag_at, std::string::npos);
  // Past the tag and the u32 epoch: the u32 entry count, then the entries.
  const size_t count_at = tag_at + tag_bytes.str().size() + 4;
  uint32_t count = 0;
  std::memcpy(&count, payload.data() + count_at, sizeof(count));
  ASSERT_EQ(count, split_->train.size() + split_->val.size());
  const size_t first_at = count_at + 4;
  int32_t second = 0;
  std::memcpy(&second, payload.data() + first_at + 4, sizeof(second));

  for (const int32_t first : {int32_t{1000000}, second}) {
    std::string damaged = payload;
    std::memcpy(damaged.data() + first_at, &first, sizeof(first));
    auto store = CheckpointStore::Open(StoreConfig());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    Commit(store.ValueOrDie().get(), damaged);

    TrainSnapshotOptions options;
    options.store = store.ValueOrDie().get();
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth resumed(TinyConfig(/*num_threads=*/1));
    auto progress = resumed.ResumeTrain(&ds, options);
    ASSERT_FALSE(progress.ok()) << "first entry " << first;
    EXPECT_EQ(progress.status().code(), StatusCode::kInvalidArgument)
        << progress.status().ToString();
  }
}

// Seeded mutants of two real TrainStates, one taken mid-GSG and one at the
// last epoch, each committed in a valid frame: ResumeTrain either fails
// with a Status or completes a model that saves, loads back and scores
// every instance. None may crash, hang or allocate without bound.
TEST_F(ResumeTrainTest, TrainStateMutantsResumeOrFailWithAStatus) {
  // One LDG epoch and a snapshot after GSG epoch 2 of 3 keep a completed
  // resume to two encoder epochs, so 300 mutants run in under 3 s.
  Dbg4EthConfig config = TinyConfig(/*num_threads=*/1);
  config.ldg.epochs = 1;
  const std::string payloads[] = {SnapshotPayload(/*kill_after=*/2, config),
                                  SnapshotPayload(/*kill_after=*/4, config)};
  fs::remove_all(dir_);
  CheckpointStoreConfig store_config = StoreConfig();
  store_config.retain = 1;
  auto store = CheckpointStore::Open(store_config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.snapshot_every_epochs = 1000;  // The resumed runs write nothing.

  std::mt19937_64 rng(0x7e57);
  int failed = 0;
  int completed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = payloads[trial % 2];
    const size_t pos = rng() % mutated.size();
    switch (rng() % 4) {
      case 0:  // Replace with an arbitrary byte.
        mutated[pos] = static_cast<char>(rng() & 0xff);
        break;
      case 1:  // Overwrite a word with an extreme count.
        if (pos + 4 <= mutated.size()) {
          constexpr uint32_t kExtremes[] = {0, 1, 0x7fffffffu, 0x80000000u,
                                            0xffffffffu};
          std::memcpy(mutated.data() + pos, &kExtremes[rng() % 5], 4);
        }
        break;
      case 2:  // Drop a byte.
        mutated.erase(pos, 1);
        break;
      default:  // Duplicate a byte.
        mutated.insert(pos, 1, mutated[pos]);
        break;
    }
    Commit(store.ValueOrDie().get(), mutated);
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth resumed(config);
    auto progress = resumed.ResumeTrain(&ds, options);
    if (!progress.ok()) {
      ++failed;
      EXPECT_FALSE(progress.status().message().empty()) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(progress.ValueOrDie(), TrainProgress::kComplete) << trial;
    ++completed;
    std::stringstream saved;
    ASSERT_TRUE(resumed.Save(&saved).ok()) << "trial " << trial;
    auto loaded = Dbg4Eth::Load(&saved);
    ASSERT_TRUE(loaded.ok()) << "trial " << trial << ": "
                             << loaded.status().ToString();
    for (const eth::GraphInstance& instance : ds.instances) {
      loaded.ValueOrDie()->PredictProba(instance);
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(completed, 0);
}

// A model completed through the preempt-at-last-epoch path must serve:
// the snapshot at the final boundary carries everything stages 3-4 need.
TEST_F(ResumeTrainTest, PreemptAtLastEpochThenResumeServes) {
  auto store = CheckpointStore::Open(StoreConfig());
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  TrainSnapshotOptions options;
  options.store = store.ValueOrDie().get();
  options.max_epochs_this_run = kTotalEpochs;
  {
    eth::SubgraphDataset ds = *raw_dataset_;
    Dbg4Eth interrupted(TinyConfig(/*num_threads=*/1));
    auto progress = interrupted.TrainWithSnapshots(&ds, *split_, options);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    // All epochs ran, but the budget stop lands before calibration and
    // the head are fitted — the model is NOT complete yet.
    EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kPreempted);
  }

  options.max_epochs_this_run = 0;
  eth::SubgraphDataset ds = *raw_dataset_;
  Dbg4Eth resumed(TinyConfig(/*num_threads=*/1));
  auto progress = resumed.ResumeTrain(&ds, options);
  ASSERT_TRUE(progress.ok()) << progress.status().ToString();
  EXPECT_EQ(progress.ValueOrDie(), TrainProgress::kComplete);
  for (const int idx : split_->test) {
    const double p = resumed.PredictProba(ds.instances[idx]);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace core
}  // namespace dbg4eth
