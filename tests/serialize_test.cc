// Checkpointing round-trip tests: every serializable component must
// reproduce its predictions exactly after Save + Load, and corrupted
// streams must fail with an error instead of yielding garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "calib/adaptive.h"
#include "common/checkpoint_store.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/dbg4eth.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "ml/ensemble.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "tensor/serialize.h"

namespace dbg4eth {
namespace {

TEST(BinarySerializeTest, PrimitivesRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(42);
  writer.WriteU64(1ull << 60);
  writer.WriteI32(-7);
  writer.WriteDouble(3.14159);
  writer.WriteBool(true);
  writer.WriteString("hello");
  writer.WriteDoubleVector({1.5, -2.5});
  writer.WriteIntVector({3, -4, 5});
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(&stream);
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  double d;
  bool b;
  std::string s;
  std::vector<double> dv;
  std::vector<int> iv;
  ASSERT_TRUE(reader.ReadU32(&u32).ok());
  ASSERT_TRUE(reader.ReadU64(&u64).ok());
  ASSERT_TRUE(reader.ReadI32(&i32).ok());
  ASSERT_TRUE(reader.ReadDouble(&d).ok());
  ASSERT_TRUE(reader.ReadBool(&b).ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadDoubleVector(&dv).ok());
  ASSERT_TRUE(reader.ReadIntVector(&iv).ok());
  EXPECT_EQ(u32, 42u);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_EQ(i32, -7);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(dv, (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(iv, (std::vector<int>{3, -4, 5}));
}

TEST(BinarySerializeTest, TruncatedStreamFails) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(10);  // promises 10 doubles, delivers none
  BinaryReader reader(&stream);
  std::vector<double> v;
  EXPECT_FALSE(reader.ReadDoubleVector(&v).ok());
}

TEST(BinarySerializeTest, TagMismatchFails) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteString("alpha");
  BinaryReader reader(&stream);
  EXPECT_FALSE(reader.ExpectTag("beta").ok());
}

TEST(BinarySerializeTest, MatrixRoundTrip) {
  Rng rng(1);
  Matrix m = Matrix::Random(4, 7, &rng);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  WriteMatrix(&writer, m);
  BinaryReader reader(&stream);
  Matrix restored;
  ASSERT_TRUE(ReadMatrix(&reader, &restored).ok());
  EXPECT_TRUE(AlmostEqual(m, restored, 0.0));
}

TEST(BinarySerializeTest, ParameterShapeMismatchFails) {
  Rng rng(2);
  ag::Tensor a = ag::Tensor::Parameter(Matrix::Random(2, 3, &rng));
  std::stringstream stream;
  BinaryWriter writer(&stream);
  ag::WriteParameters(&writer, {a});
  BinaryReader reader(&stream);
  ag::Tensor wrong = ag::Tensor::Parameter(Matrix::Random(3, 3, &rng));
  std::vector<ag::Tensor> params = {wrong};
  EXPECT_FALSE(ag::ReadParameters(&reader, &params).ok());
}

void MakeCalibrationData(int n, uint64_t seed, std::vector<double>* scores,
                         std::vector<int>* labels) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double s = rng.Uniform();
    scores->push_back(s);
    labels->push_back(rng.Bernoulli(0.2 + 0.6 * s) ? 1 : 0);
  }
}

TEST(CalibratorSerializeTest, EveryMethodRoundTrips) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeCalibrationData(400, 3, &scores, &labels);
  for (auto& original : calib::MakeAllCalibrators()) {
    ASSERT_TRUE(original->Fit(scores, labels).ok());
    std::stringstream stream;
    BinaryWriter writer(&stream);
    original->Save(&writer);

    auto all = calib::MakeAllCalibrators();
    calib::Calibrator* restored = nullptr;
    for (auto& c : all) {
      if (c->name() == original->name()) restored = c.get();
    }
    ASSERT_NE(restored, nullptr);
    BinaryReader reader(&stream);
    ASSERT_TRUE(restored->Load(&reader).ok()) << original->name();
    for (double s = 0.0; s <= 1.0; s += 0.03) {
      EXPECT_DOUBLE_EQ(original->Calibrate(s), restored->Calibrate(s))
          << original->name();
    }
  }
}

TEST(CalibratorSerializeTest, AdaptiveEnsembleRoundTrips) {
  std::vector<double> scores;
  std::vector<int> labels;
  MakeCalibrationData(500, 5, &scores, &labels);
  calib::AdaptiveCalibrator original;
  ASSERT_TRUE(original.Fit(scores, labels).ok());
  std::stringstream stream;
  BinaryWriter writer(&stream);
  original.Save(&writer);

  calib::AdaptiveCalibrator restored;
  BinaryReader reader(&stream);
  ASSERT_TRUE(restored.Load(&reader).ok());
  ASSERT_EQ(restored.methods().size(), original.methods().size());
  for (size_t i = 0; i < original.methods().size(); ++i) {
    EXPECT_EQ(restored.methods()[i].name, original.methods()[i].name);
    EXPECT_DOUBLE_EQ(restored.methods()[i].weight,
                     original.methods()[i].weight);
  }
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    EXPECT_DOUBLE_EQ(original.Calibrate(s), restored.Calibrate(s));
  }
}

void MakeTabularData(int n, uint64_t seed, Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  *x = Matrix(n, 3);
  y->resize(n);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c) x->At(i, c) = rng.Normal(0, 1);
    (*y)[i] = x->At(i, 0) + x->At(i, 1) * x->At(i, 2) > 0 ? 1 : 0;
  }
}

template <typename Model>
void ExpectHeadRoundTrip(Model* original, Model* restored) {
  Matrix x;
  std::vector<int> y;
  MakeTabularData(200, 7, &x, &y);
  ASSERT_TRUE(original->Train(x, y).ok());
  std::stringstream stream;
  BinaryWriter writer(&stream);
  original->Save(&writer);
  BinaryReader reader(&stream);
  ASSERT_TRUE(restored->Load(&reader, x.cols()).ok());
  for (int i = 0; i < x.rows(); i += 17) {
    EXPECT_DOUBLE_EQ(original->PredictProba(x.RowPtr(i)),
                     restored->PredictProba(x.RowPtr(i)));
  }
}

TEST(HeadSerializeTest, GbdtRoundTrips) {
  ml::GbdtClassifier original, restored;
  ExpectHeadRoundTrip(&original, &restored);
}

TEST(HeadSerializeTest, RandomForestRoundTrips) {
  ml::RandomForestClassifier original, restored;
  ExpectHeadRoundTrip(&original, &restored);
}

TEST(HeadSerializeTest, AdaBoostRoundTrips) {
  ml::AdaBoostClassifier original, restored;
  ExpectHeadRoundTrip(&original, &restored);
}

TEST(HeadSerializeTest, MlpRoundTrips) {
  ml::MlpClassifier original, restored;
  ExpectHeadRoundTrip(&original, &restored);
}

// --- Optimizer state (training-resume checkpoints) ---

/// Runs `steps` Adam updates of minimize sum(x^2) over `params`.
void RunQuadraticSteps(ag::Adam* opt, const std::vector<ag::Tensor>& params,
                       int steps) {
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    ag::Tensor loss;
    for (const ag::Tensor& p : params) {
      ag::Tensor term = ag::SumAll(ag::Mul(p, p));
      loss = loss.defined() ? ag::Add(loss, term) : term;
    }
    loss.Backward();
    opt->Step();
  }
}

TEST(OptimizerStateTest, AdamRoundTripResumesBitIdentically) {
  Rng rng(11);
  std::vector<ag::Tensor> params_a = {
      ag::Tensor::Parameter(Matrix::Random(3, 4, &rng)),
      ag::Tensor::Parameter(Matrix::Random(2, 2, &rng))};
  ag::Adam opt_a(params_a, 0.05);
  RunQuadraticSteps(&opt_a, params_a, 3);

  // Checkpoint: parameter values + optimizer moments and step counter.
  std::stringstream stream;
  BinaryWriter writer(&stream);
  ag::WriteParameters(&writer, params_a);
  opt_a.SaveState(&writer);

  // Fresh process: equally shaped params, state restored from the stream.
  std::vector<ag::Tensor> params_b = {
      ag::Tensor::Parameter(Matrix::Zeros(3, 4)),
      ag::Tensor::Parameter(Matrix::Zeros(2, 2))};
  BinaryReader reader(&stream);
  ASSERT_TRUE(ag::ReadParameters(&reader, &params_b).ok());
  ag::Adam opt_b(params_b, 0.05);
  ASSERT_TRUE(opt_b.LoadState(&reader).ok());
  EXPECT_EQ(opt_b.step_count(), opt_a.step_count());

  // Both trajectories must now be bit-identical — Adam's moments and
  // bias-correction counter are part of the update, so a zeroed restore
  // would diverge on the very first step.
  RunQuadraticSteps(&opt_a, params_a, 5);
  RunQuadraticSteps(&opt_b, params_b, 5);
  for (size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_TRUE(AlmostEqual(params_a[i].value(), params_b[i].value(), 0.0))
        << "param " << i << " diverged after resume";
  }
}

TEST(OptimizerStateTest, AdamRejectsParameterCountMismatch) {
  Rng rng(12);
  std::vector<ag::Tensor> two = {
      ag::Tensor::Parameter(Matrix::Random(2, 2, &rng)),
      ag::Tensor::Parameter(Matrix::Random(2, 2, &rng))};
  ag::Adam saved(two, 0.1);
  RunQuadraticSteps(&saved, two, 1);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  saved.SaveState(&writer);

  std::vector<ag::Tensor> one = {
      ag::Tensor::Parameter(Matrix::Random(2, 2, &rng))};
  ag::Adam loaded(one, 0.1);
  BinaryReader reader(&stream);
  const Status st = loaded.LoadState(&reader);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.step_count(), 0);  // In-memory state untouched.
}

TEST(OptimizerStateTest, AdamRejectsShapeMismatchAndStaysUsable) {
  Rng rng(13);
  std::vector<ag::Tensor> small = {
      ag::Tensor::Parameter(Matrix::Random(2, 3, &rng))};
  ag::Adam saved(small, 0.1);
  RunQuadraticSteps(&saved, small, 2);
  std::stringstream stream;
  BinaryWriter writer(&stream);
  saved.SaveState(&writer);

  std::vector<ag::Tensor> big = {
      ag::Tensor::Parameter(Matrix::Random(3, 3, &rng))};
  ag::Adam loaded(big, 0.1);
  BinaryReader reader(&stream);
  const Status st = loaded.LoadState(&reader);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.step_count(), 0);
  // The rejected load must not have corrupted the optimizer.
  RunQuadraticSteps(&loaded, big, 1);
  EXPECT_EQ(loaded.step_count(), 1);
}

TEST(ModelSerializeTest, FullDbg4EthRoundTrips) {
  eth::LedgerConfig lc;
  lc.num_normal = 500;
  lc.num_exchange = 10;
  lc.duration_days = 90.0;
  lc.seed = 99;
  eth::LedgerSimulator ledger(lc);
  ASSERT_TRUE(ledger.Generate().ok());
  eth::DatasetConfig dc;
  dc.target = eth::AccountClass::kExchange;
  dc.max_positives = 10;
  dc.sampling.top_k = 5;
  dc.sampling.max_nodes = 40;
  dc.num_time_slices = 4;
  auto ds = std::move(eth::BuildDataset(ledger, dc)).ValueOrDie();

  core::Dbg4EthConfig config;
  config.gsg.hidden_dim = 12;
  config.gsg.epochs = 3;
  config.ldg.hidden_dim = 12;
  config.ldg.epochs = 2;
  config.ldg.first_level_clusters = 4;
  config.gbdt.num_trees = 10;
  core::Dbg4Eth original(config);
  Rng rng(config.seed);
  const ml::SplitIndices split = ml::StratifiedSplit(
      ds.labels(), config.train_fraction, config.val_fraction, &rng);
  ASSERT_TRUE(original.Train(&ds, split).ok());

  // Untrained models refuse to save.
  {
    core::Dbg4Eth untrained(config);
    std::stringstream sink;
    EXPECT_EQ(untrained.Save(&sink).code(), StatusCode::kFailedPrecondition);
  }

  std::stringstream stream;
  ASSERT_TRUE(original.Save(&stream).ok());
  auto restored_result = core::Dbg4Eth::Load(&stream);
  ASSERT_TRUE(restored_result.ok()) << restored_result.status().ToString();
  const auto& restored = restored_result.ValueOrDie();

  for (const auto& inst : ds.instances) {
    EXPECT_DOUBLE_EQ(original.PredictProba(inst),
                     restored->PredictProba(inst));
  }

  // The checkpoint is framed (magic + version + length + CRC) so
  // corruption fails loudly instead of restoring a silently wrong model.
  const std::string framed = stream.str();

  // The bare payload, without its frame, is not a checkpoint.
  {
    std::stringstream whole(framed);
    auto payload = ReadFramedCheckpoint(&whole);
    ASSERT_TRUE(payload.ok());
    std::stringstream unframed(payload.ValueOrDie());
    EXPECT_EQ(core::Dbg4Eth::Load(&unframed).status().code(),
              StatusCode::kInvalidArgument);
  }

  // Truncation at any point errors instead of crashing. Sweep every byte
  // of the head and tail plus a stride through the body (a full per-byte
  // sweep over a multi-KB model would be quadratic; the frame-level sweep
  // in checkpoint_store_test covers every offset exhaustively).
  {
    std::vector<size_t> cuts;
    for (size_t i = 0; i < std::min<size_t>(80, framed.size()); ++i) {
      cuts.push_back(i);
    }
    for (size_t i = 80; i + 80 < framed.size(); i += 997) cuts.push_back(i);
    for (size_t i = framed.size() - std::min<size_t>(80, framed.size());
         i < framed.size(); ++i) {
      cuts.push_back(i);
    }
    for (size_t cut : cuts) {
      std::stringstream truncated(framed.substr(0, cut));
      EXPECT_FALSE(core::Dbg4Eth::Load(&truncated).ok())
          << "prefix of " << cut << " bytes restored a model";
    }
  }

  // A single flipped bit anywhere in the payload fails the CRC.
  {
    std::string tampered = framed;
    tampered[tampered.size() / 2] =
        static_cast<char>(tampered[tampered.size() / 2] ^ 0x10);
    std::stringstream corrupt(tampered);
    auto load = core::Dbg4Eth::Load(&corrupt);
    ASSERT_FALSE(load.ok());
    EXPECT_EQ(load.status().code(), StatusCode::kDataLoss);
  }
}

/// A trained model's checkpoint payload (the bytes inside the frame), and
/// one raw instance to score with it. The model is small so that random
/// mutations land on structure (sizes, counts, tags, tree links) as often
/// as on weights.
struct TinyModel {
  std::string payload;
  eth::GraphInstance raw_instance;
};

TinyModel TrainTinyModel() {
  eth::LedgerConfig lc;
  lc.num_normal = 300;
  lc.num_exchange = 10;
  lc.duration_days = 60.0;
  lc.seed = 7;
  eth::LedgerSimulator ledger(lc);
  EXPECT_TRUE(ledger.Generate().ok());
  eth::DatasetConfig dc;
  dc.target = eth::AccountClass::kExchange;
  dc.max_positives = 10;
  dc.sampling.top_k = 4;
  dc.sampling.max_nodes = 20;
  dc.num_time_slices = 3;
  auto ds = std::move(eth::BuildDataset(ledger, dc)).ValueOrDie();
  TinyModel tiny;
  tiny.raw_instance = ds.instances.front();  // Train standardizes ds.

  core::Dbg4EthConfig config;
  config.gsg.hidden_dim = 4;
  config.gsg.epochs = 1;
  config.ldg.hidden_dim = 4;
  config.ldg.epochs = 1;
  config.ldg.first_level_clusters = 2;
  config.gbdt.num_trees = 4;
  core::Dbg4Eth model(config);
  Rng rng(config.seed);
  const ml::SplitIndices split = ml::StratifiedSplit(
      ds.labels(), config.train_fraction, config.val_fraction, &rng);
  EXPECT_TRUE(model.Train(&ds, split).ok());
  std::stringstream framed;
  EXPECT_TRUE(model.Save(&framed).ok());
  auto payload = ReadFramedCheckpoint(&framed);
  EXPECT_TRUE(payload.ok());
  tiny.payload = payload.ValueOrDie();
  return tiny;
}

/// Loads `payload` inside a fresh, valid frame: only the payload parser
/// sees the damage.
Result<std::unique_ptr<core::Dbg4Eth>> LoadPayload(
    const std::string& payload) {
  std::stringstream framed;
  EXPECT_TRUE(WriteFramedCheckpoint(&framed, payload).ok());
  return core::Dbg4Eth::Load(&framed);
}

void PutU32(std::string* bytes, size_t at, uint32_t value) {
  ASSERT_LE(at + sizeof(value), bytes->size());
  std::memcpy(bytes->data() + at, &value, sizeof(value));
}

uint32_t GetU32(const std::string& bytes, size_t at) {
  uint32_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

/// Offset just past the ag::WriteParameters block at `at`: a u32 count,
/// then per matrix i32 rows, i32 cols, u32 n and n doubles.
size_t SkipParameters(const std::string& bytes, size_t at) {
  const uint32_t count = GetU32(bytes, at);
  at += 4;
  for (uint32_t i = 0; i < count; ++i) at += 12 + 8 * GetU32(bytes, at + 8);
  return at;
}

/// Drops the last row of the first matrix of the parameter block at `at`.
void DropFirstMatrixRow(std::string* bytes, size_t at) {
  const size_t matrix = at + 4;
  const uint32_t rows = GetU32(*bytes, matrix);
  const uint32_t cols = GetU32(*bytes, matrix + 4);
  const uint32_t n = GetU32(*bytes, matrix + 8);
  PutU32(bytes, matrix, rows - 1);
  PutU32(bytes, matrix + 8, n - cols);
  bytes->erase(matrix + 12 + 8 * (n - cols), 8 * cols);
}

/// `n` x `width` rows whose label depends on the first column.
void MakeHeadData(int n, int width, Matrix* x, std::vector<int>* y) {
  Rng rng(3);
  *x = Matrix(n, width);
  y->resize(n);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < width; ++c) x->At(i, c) = rng.Uniform();
    (*y)[i] = x->At(i, 0) > 0.5 ? 1 : 0;
  }
}

TEST(ModelSerializeTest, CorruptPayloadsLoadOrFailWithAStatus) {
  const TinyModel tiny = TrainTinyModel();
  const std::string& payload = tiny.payload;
  ASSERT_TRUE(LoadPayload(payload).ok());

  // Fixed cases. Offsets follow the payload layout: the architecture block
  // starts after the "dbg4eth_config" tag (u32 length + bytes), then come
  // the normalizer, each branch's parameters and scaler, the calibrators,
  // and the GBDT head after the "gbdt" tag near the end.
  const std::string config_tag =
      std::string("\x0e\0\0\0", 4) + "dbg4eth_config";
  const size_t config = payload.find(config_tag);
  ASSERT_NE(config, std::string::npos);
  const size_t gsg_feature_dim = config + config_tag.size();
  const size_t gsg_hidden_dim = gsg_feature_dim + 4;
  const size_t ldg_feature_dim = gsg_feature_dim + 109;
  ASSERT_EQ(GetU32(payload, gsg_feature_dim), 15u);
  ASSERT_EQ(GetU32(payload, gsg_hidden_dim), 4u);
  ASSERT_EQ(GetU32(payload, ldg_feature_dim), 15u);
  const size_t use_gsg = config + config_tag.size() + 141;
  const size_t head_kind = use_gsg + 3;
  ASSERT_EQ(payload[use_gsg], 1);
  ASSERT_EQ(payload[use_gsg + 1], 1);  // use_ldg
  ASSERT_EQ(GetU32(payload, head_kind), 0u);  // HeadKind::kLightGbm
  const size_t means = head_kind + 4 + 8;  // Past the head kind and seed.
  ASSERT_EQ(GetU32(payload, means), 15u);
  const size_t gsg_params = means + 2 * (4 + 15 * 8);
  ASSERT_EQ(GetU32(payload, gsg_params + 4), 17u);  // Eq. 6 alignment rows.
  const size_t ldg_params = SkipParameters(payload, gsg_params) + 2 * 8;
  ASSERT_EQ(GetU32(payload, ldg_params + 4), 15u);  // Input projection rows.

  const std::string histogram_tag =
      std::string("\x09\0\0\0", 4) + "histogram";
  const size_t histogram = payload.find(histogram_tag);
  ASSERT_NE(histogram, std::string::npos);
  // Past the name, the method's delta-ECE and weight.
  const size_t histogram_bins = histogram + histogram_tag.size() + 2 * 8;
  ASSERT_EQ(GetU32(payload, histogram_bins),  // The bin count...
            GetU32(payload, histogram_bins + 4));  // ...and the table size.

  const std::string gbdt_tag = std::string("\x04\0\0\0", 4) + "gbdt";
  const size_t gbdt = payload.rfind(gbdt_tag);
  ASSERT_NE(gbdt, std::string::npos);
  const size_t name = gbdt + gbdt_tag.size();
  const size_t tree_count = name + 4 + GetU32(payload, name) + 2 * 8;
  ASSERT_EQ(GetU32(payload, tree_count), 4u);
  // Node 0 of the first tree: past the tree count and that tree's node
  // count. It splits, on feature 0 or 1 of the two-probability row.
  const size_t root = tree_count + 4 + 4;
  const size_t root_left = root + 4 + 8;
  ASSERT_LT(GetU32(payload, root), 2u);

  // The payload with its head swapped for `head`, stored as `kind`.
  const auto with_head = [&](core::HeadKind kind,
                             const ml::BinaryClassifier& head) {
    std::string swapped = payload.substr(0, gbdt);
    PutU32(&swapped, head_kind, static_cast<uint32_t>(kind));
    std::ostringstream os;
    BinaryWriter writer(&os);
    head.Save(&writer);
    writer.WriteString("end");
    return swapped + os.str();
  };
  Matrix x2, x3;
  std::vector<int> y2, y3;
  MakeHeadData(60, 2, &x2, &y2);
  MakeHeadData(60, 3, &x3, &y3);
  ml::AdaBoostClassifier adaboost;
  ASSERT_TRUE(adaboost.Train(x2, y2).ok());
  ml::MlpClassifier mlp2, mlp3;
  ASSERT_TRUE(mlp2.Train(x2, y2).ok());
  ASSERT_TRUE(mlp3.Train(x3, y3).ok());
  const std::string adaboost_payload =
      with_head(core::HeadKind::kAdaBoost, adaboost);
  ASSERT_TRUE(LoadPayload(adaboost_payload).ok());
  ASSERT_TRUE(LoadPayload(with_head(core::HeadKind::kMlp, mlp2)).ok());
  // Past the "adaboost" tag and the stump count.
  const size_t first_stump = gbdt + 4 + 8 + 4;

  struct Case {
    const char* what;
    std::function<void(std::string*)> damage;
  };
  const std::vector<Case> cases = {
      {"GBDT tree count 0xffffffff",
       [&](std::string* p) { PutU32(p, tree_count, 0xffffffffu); }},
      {"first root's children point at itself",
       [&](std::string* p) {
         PutU32(p, root, 0);  // An internal node on feature 0...
         PutU32(p, root_left, 0);
         PutU32(p, root_left + 4, 0);  // ...whose children are itself.
       }},
      {"first root splits on feature 100000",
       [&](std::string* p) { PutU32(p, root, 100000); }},
      {"first root splits on feature 2 of a two-entry row",
       [&](std::string* p) { PutU32(p, root, 2); }},
      {"AdaBoost stump on feature -1",
       [&](std::string* p) {
         *p = adaboost_payload;
         PutU32(p, first_stump, static_cast<uint32_t>(-1));
       }},
      {"AdaBoost stump on feature 2 of a two-entry row",
       [&](std::string* p) {
         *p = adaboost_payload;
         PutU32(p, first_stump, 2);
       }},
      {"MLP head over three inputs",
       [&](std::string* p) { *p = with_head(core::HeadKind::kMlp, mlp3); }},
      {"histogram calibrator with no bins",
       [&](std::string* p) {
         const uint32_t bins = GetU32(*p, histogram_bins);
         PutU32(p, histogram_bins, 0);
         PutU32(p, histogram_bins + 4, 0);
         p->erase(histogram_bins + 8, 8 * bins);
       }},
      {"normalizer over 14 features",
       [&](std::string* p) {
         PutU32(p, means, 14);
         p->erase(means + 4 + 14 * 8, 8);
         const size_t stds = means + 4 + 14 * 8;
         PutU32(p, stds, 14);
         p->erase(stds + 4 + 14 * 8, 8);
       }},
      {"GSG over 14 node features, weights to match",
       [&](std::string* p) {
         PutU32(p, gsg_feature_dim, 14);
         DropFirstMatrixRow(p, gsg_params);
       }},
      {"LDG over 14 node features, weights to match",
       [&](std::string* p) {
         PutU32(p, ldg_feature_dim, 14);
         DropFirstMatrixRow(p, ldg_params);
       }},
      {"gsg.hidden_dim 2^30",
       [&](std::string* p) { PutU32(p, gsg_hidden_dim, 1u << 30); }},
      {"gsg.num_heads 0",
       [&](std::string* p) { PutU32(p, gsg_hidden_dim + 8, 0); }},
      {"head kind 99", [&](std::string* p) { PutU32(p, head_kind, 99); }},
      {"both branches off",
       [&](std::string* p) {
         (*p)[use_gsg] = 0;
         (*p)[use_gsg + 1] = 0;
       }},
  };
  for (const Case& c : cases) {
    std::string damaged = payload;
    c.damage(&damaged);
    const Status status = LoadPayload(damaged).status();
    EXPECT_FALSE(status.ok()) << c.what;
    EXPECT_FALSE(status.message().empty()) << c.what;
  }

  // Seeded random mutations: each either fails with a Status or loads a
  // model that normalizes and scores an instance; none may crash, hang or
  // allocate without bound.
  std::mt19937_64 rng(0x5eed);
  int failed = 0;
  int scored = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = payload;
    const size_t pos = rng() % mutated.size();
    switch (rng() % 4) {
      case 0:  // Replace with an arbitrary byte.
        mutated[pos] = static_cast<char>(rng() & 0xff);
        break;
      case 1:  // Overwrite a word with an extreme count.
        if (pos + 4 <= mutated.size()) {
          constexpr uint32_t kExtremes[] = {0, 1, 0x7fffffffu, 0x80000000u,
                                            0xffffffffu};
          PutU32(&mutated, pos, kExtremes[rng() % 5]);
        }
        break;
      case 2:  // Drop a byte.
        mutated.erase(pos, 1);
        break;
      default:  // Duplicate a byte.
        mutated.insert(pos, 1, mutated[pos]);
        break;
    }
    auto loaded = LoadPayload(mutated);
    if (!loaded.ok()) {
      ++failed;
      EXPECT_FALSE(loaded.status().message().empty()) << "trial " << trial;
      continue;
    }
    eth::GraphInstance instance = tiny.raw_instance;
    loaded.ValueOrDie()->Normalize(&instance);
    loaded.ValueOrDie()->PredictProba(instance);
    ++scored;
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(scored, 0);
}

TEST(ModelSerializeTest, GarbageStreamFailsToLoad) {
  std::stringstream stream;
  stream << "this is not a checkpoint";
  auto result = core::Dbg4Eth::Load(&stream);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace dbg4eth
