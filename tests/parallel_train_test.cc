// Tests for the parallel training substrate: the shared ThreadPool /
// ParallelFor helpers, thread-local GradientBuffer backward, determinism
// of the intra-batch data-parallel trainers (num_threads=N must reproduce
// num_threads=1 bit-for-bit).
#include <atomic>
#include <memory>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/gsg_encoder.h"
#include "core/ldg_encoder.h"
#include "core/parallel_trainer.h"
#include "eth/dataset.h"
#include "eth/ledger.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace dbg4eth {
namespace {

TEST(ResolveNumThreadsTest, PassesThroughPositiveAndResolvesAuto) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(5), 5);
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_GE(ResolveNumThreads(-3), 1);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr int kN = 257;
  std::vector<std::atomic<int>> counts(kN);
  for (auto& c : counts) c.store(0);
  ParallelFor(&pool, kN, [&](int i) { counts[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SerialPathsWork) {
  // Null pool, n <= 1, and n == 0 all run inline on the caller.
  std::vector<int> hits(4, 0);
  ParallelFor(nullptr, 4, [&](int i) { hits[i]++; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));

  ThreadPool pool(2);
  int single = 0;
  ParallelFor(&pool, 1, [&](int i) { single += i + 1; });
  EXPECT_EQ(single, 1);

  bool called = false;
  ParallelFor(&pool, 0, [&](int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(MakeTrainerPoolTest, NullForSingleThread) {
  EXPECT_EQ(core::MakeTrainerPool(1), nullptr);
  auto pool = core::MakeTrainerPool(4);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);  // Caller participates as 4th worker.
}

TEST(GradientBufferTest, BufferedBackwardMatchesDirectBackward) {
  Rng rng(41);
  const Matrix w0 = Matrix::Random(4, 3, &rng);
  const Matrix x0 = Matrix::Random(3, 5, &rng);

  ag::Tensor w_direct = ag::Tensor::Parameter(w0);
  ag::Tensor x_direct = ag::Tensor::Parameter(x0);
  ag::MeanAll(ag::Relu(ag::MatMul(w_direct, x_direct))).Backward();

  ag::Tensor w_buf = ag::Tensor::Parameter(w0);
  ag::Tensor x_buf = ag::Tensor::Parameter(x0);
  ag::GradientBuffer buffer;
  ag::MeanAll(ag::Relu(ag::MatMul(w_buf, x_buf))).Backward(&buffer);
  // Leaf gradients land in the buffer, not on the parameters, until the
  // reduction step.
  EXPECT_FALSE(w_buf.has_grad());
  EXPECT_FALSE(x_buf.has_grad());
  buffer.ReduceInto();

  ASSERT_TRUE(w_buf.has_grad());
  ASSERT_TRUE(x_buf.has_grad());
  for (int r = 0; r < w0.rows(); ++r) {
    for (int c = 0; c < w0.cols(); ++c) {
      EXPECT_DOUBLE_EQ(w_buf.grad().At(r, c), w_direct.grad().At(r, c));
    }
  }
  for (int r = 0; r < x0.rows(); ++r) {
    for (int c = 0; c < x0.cols(); ++c) {
      EXPECT_DOUBLE_EQ(x_buf.grad().At(r, c), x_direct.grad().At(r, c));
    }
  }
}

TEST(GradientBufferTest, ReduceAccumulatesAcrossBuffers) {
  ag::Tensor w = ag::Tensor::Parameter(Matrix(2, 2, 1.5));
  ag::GradientBuffer b1;
  ag::GradientBuffer b2;
  ag::SumAll(w).Backward(&b1);
  ag::SumAll(ag::ScalarMul(w, 2.0)).Backward(&b2);
  b1.ReduceInto();
  b2.ReduceInto();
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(w.grad().At(r, c), 3.0);  // 1 + 2.
    }
  }
}

TEST(ParallelBatchBackwardTest, ReducesEveryInstanceGradient) {
  auto pool = core::MakeTrainerPool(3);
  ag::Tensor w = ag::Tensor::Parameter(Matrix(3, 3, 0.5));
  constexpr int kBatch = 6;
  core::ParallelBatchBackward(
      pool.get(), kBatch, [&](int bi, ag::GradientBuffer* buffer) {
        ag::SumAll(ag::ScalarMul(w, static_cast<double>(bi + 1)))
            .Backward(buffer);
      });
  // d/dw sum_i (i+1)*w = 1+2+...+6 = 21 in every cell.
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(w.grad().At(r, c), 21.0);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: parallel training must reproduce serial training.
// ---------------------------------------------------------------------------

eth::LedgerConfig SmallLedgerConfig() {
  eth::LedgerConfig config;
  config.num_normal = 260;
  config.num_exchange = 8;
  config.num_ico_wallet = 4;
  config.num_mining = 3;
  config.num_phish_hack = 6;
  config.num_bridge = 3;
  config.num_defi = 3;
  config.duration_days = 45.0;
  config.seed = 77;
  return config;
}

eth::DatasetConfig SmallDatasetConfig() {
  eth::DatasetConfig config;
  config.target = eth::AccountClass::kExchange;
  config.max_positives = 6;
  config.sampling.top_k = 4;
  config.sampling.max_nodes = 40;
  config.num_time_slices = 3;
  config.seed = 5;
  return config;
}

class ParallelTrainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ledger_ = new eth::LedgerSimulator(SmallLedgerConfig());
    ASSERT_TRUE(ledger_->Generate().ok());
    auto built = eth::BuildDataset(*ledger_, SmallDatasetConfig());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    dataset_ = new eth::SubgraphDataset(std::move(built).ValueOrDie());
    std::vector<int> all_indices(dataset_->num_graphs());
    for (int i = 0; i < dataset_->num_graphs(); ++i) all_indices[i] = i;
    eth::StandardizeDataset(dataset_, all_indices);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete ledger_;
    ledger_ = nullptr;
  }

  static std::vector<int> AllIndices() {
    std::vector<int> indices(dataset_->num_graphs());
    for (int i = 0; i < dataset_->num_graphs(); ++i) indices[i] = i;
    return indices;
  }

  static void ExpectParamsIdentical(const std::vector<ag::Tensor>& a,
                                    const std::vector<ag::Tensor>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t p = 0; p < a.size(); ++p) {
      const Matrix& ma = a[p].value();
      const Matrix& mb = b[p].value();
      ASSERT_EQ(ma.rows(), mb.rows());
      ASSERT_EQ(ma.cols(), mb.cols());
      for (int r = 0; r < ma.rows(); ++r) {
        for (int c = 0; c < ma.cols(); ++c) {
          EXPECT_DOUBLE_EQ(ma.At(r, c), mb.At(r, c))
              << "param " << p << " (" << r << ", " << c << ")";
        }
      }
    }
  }

  static eth::LedgerSimulator* ledger_;
  static eth::SubgraphDataset* dataset_;
};

eth::LedgerSimulator* ParallelTrainTest::ledger_ = nullptr;
eth::SubgraphDataset* ParallelTrainTest::dataset_ = nullptr;

TEST_F(ParallelTrainTest, GsgEncoderThreadCountDoesNotChangeResult) {
  core::GsgEncoderConfig config;
  config.hidden_dim = 12;
  config.epochs = 2;
  config.batch_size = 4;
  config.seed = 9;

  config.num_threads = 1;
  core::GsgEncoder serial(config);
  ASSERT_TRUE(serial.Train(*dataset_, AllIndices()).ok());

  config.num_threads = 4;
  core::GsgEncoder parallel(config);
  ASSERT_TRUE(parallel.Train(*dataset_, AllIndices()).ok());

  ExpectParamsIdentical(serial.Parameters(), parallel.Parameters());
}

TEST_F(ParallelTrainTest, LdgEncoderThreadCountDoesNotChangeResult) {
  core::LdgEncoderConfig config;
  config.hidden_dim = 12;
  config.num_time_slices = 3;
  config.first_level_clusters = 4;
  config.epochs = 2;
  config.batch_size = 3;
  config.seed = 9;

  config.num_threads = 1;
  core::LdgEncoder serial(config);
  ASSERT_TRUE(serial.Train(*dataset_, AllIndices()).ok());

  config.num_threads = 4;
  core::LdgEncoder parallel(config);
  ASSERT_TRUE(parallel.Train(*dataset_, AllIndices()).ok());

  ExpectParamsIdentical(serial.Parameters(), parallel.Parameters());
}

TEST_F(ParallelTrainTest, LdgBatchSizeOneMatchesSeedBehavior) {
  // batch_size=1 with threads is a degenerate batch; it must still equal
  // the serial per-instance path exactly.
  core::LdgEncoderConfig config;
  config.hidden_dim = 10;
  config.num_time_slices = 3;
  config.first_level_clusters = 4;
  config.epochs = 1;
  config.batch_size = 1;
  config.seed = 13;

  config.num_threads = 1;
  core::LdgEncoder serial(config);
  ASSERT_TRUE(serial.Train(*dataset_, AllIndices()).ok());

  config.num_threads = 4;
  core::LdgEncoder parallel(config);
  ASSERT_TRUE(parallel.Train(*dataset_, AllIndices()).ok());

  ExpectParamsIdentical(serial.Parameters(), parallel.Parameters());
}

TEST_F(ParallelTrainTest, GsgBatchSizeBelowOneTrainsAsOne) {
  // Every trainer treats a batch size below 1 as 1, so the epoch loop
  // still advances through the instances.
  core::GsgEncoderConfig config;
  config.hidden_dim = 8;
  config.epochs = 1;
  config.seed = 17;
  config.batch_size = 1;
  core::GsgEncoder reference(config);
  ASSERT_TRUE(reference.Train(*dataset_, AllIndices()).ok());

  for (int batch_size : {0, -1}) {
    config.batch_size = batch_size;
    core::GsgEncoder encoder(config);
    ASSERT_TRUE(encoder.Train(*dataset_, AllIndices()).ok());
    ExpectParamsIdentical(reference.Parameters(), encoder.Parameters());
  }
}

}  // namespace
}  // namespace dbg4eth
