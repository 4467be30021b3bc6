// Tests for the dense host kernels (the oracles' oracle).
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/kernels.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

TEST(Matmul, SmallKnown) {
  MatrixF a(2, 3);
  MatrixF b(3, 2);
  float va = 1.0f;
  for (float& v : a.flat()) v = va++;
  float vb = 1.0f;
  for (float& v : b.flat()) v = vb++;
  const MatrixF c = matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [1 2; 3 4; 5 6] -> c = [22 28; 49 64]
  EXPECT_FLOAT_EQ(c(0, 0), 22.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 28.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 49.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 64.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  MatrixF a(2, 3);
  MatrixF b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matmul, NtEquivalentToExplicitTranspose) {
  Rng rng(5);
  const MatrixF a = random_normal(7, 5, rng);
  const MatrixF b = random_normal(9, 5, rng);
  const MatrixF direct = matmul_nt(a, b);
  const MatrixF via_t = matmul(a, transpose(b));
  swat::testing::expect_matrix_near(direct, via_t, 1e-5f, "nt vs transpose");
}

TEST(Transpose, Involution) {
  Rng rng(6);
  const MatrixF a = random_normal(4, 9, rng);
  swat::testing::expect_matrix_equal(transpose(transpose(a)), a);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(7);
  MatrixF m = random_normal(20, 33, rng, 3.0);
  row_softmax_stable(m);
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    float sum = 0.0f;
    for (float v : m.row(i)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableMatchesNaiveOnSmallScores) {
  Rng rng(8);
  MatrixF a = random_normal(10, 16, rng, 1.0);
  MatrixF b = a;
  row_softmax_stable(a);
  row_softmax_naive(b);
  swat::testing::expect_matrix_near(a, b, 1e-6f, "stable vs naive");
}

TEST(Softmax, StableSurvivesLargeScores) {
  MatrixF m(1, 3);
  m(0, 0) = 200.0f;  // exp(200) overflows float
  m(0, 1) = 199.0f;
  m(0, 2) = 100.0f;
  row_softmax_stable(m);
  EXPECT_NEAR(m(0, 0), 1.0f / (1.0f + std::exp(-1.0f)), 1e-5f);
  EXPECT_NEAR(m(0, 1), std::exp(-1.0f) / (1.0f + std::exp(-1.0f)), 1e-5f);
  EXPECT_NEAR(m(0, 2), 0.0f, 1e-6f);
}

TEST(Softmax, ShiftInvariance) {
  Rng rng(9);
  MatrixF a = random_normal(5, 8, rng);
  MatrixF b = a;
  for (float& v : b.flat()) v += 10.0f;  // same shift to every row
  row_softmax_stable(a);
  row_softmax_stable(b);
  swat::testing::expect_matrix_near(a, b, 1e-5f, "shift invariance");
}

TEST(DotAxpy, Basics) {
  const std::vector<float> x{1.0f, 2.0f, 3.0f};
  const std::vector<float> y{4.0f, 5.0f, 6.0f};
  EXPECT_FLOAT_EQ(dot(x, y), 32.0f);
  std::vector<float> acc{1.0f, 1.0f, 1.0f};
  axpy(2.0f, x, acc);
  EXPECT_FLOAT_EQ(acc[0], 3.0f);
  EXPECT_FLOAT_EQ(acc[2], 7.0f);
}

TEST(ErrorMetrics, MaxAbsDiffAndRelError) {
  MatrixF a(1, 2);
  MatrixF b(1, 2);
  a(0, 0) = 1.0f;
  a(0, 1) = 2.0f;
  b(0, 0) = 1.5f;
  b(0, 1) = 2.0f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_NEAR(relative_error(a, b), 0.5 / std::sqrt(1.5 * 1.5 + 4.0), 1e-6);
  EXPECT_DOUBLE_EQ(relative_error(b, b), 0.0);
}

// ------------------------------------- plan-driven layer kernels ----

TEST(LayerNormInto, MatchesNaiveOracleBitExact) {
  Rng rng(21);
  const MatrixF x = random_normal(17, 24, rng, 3.0);
  std::vector<float> gamma(24), beta(24);
  for (std::size_t j = 0; j < 24; ++j) {
    gamma[j] = 0.5f + 0.1f * static_cast<float>(j);
    beta[j] = -1.0f + 0.05f * static_cast<float>(j);
  }
  const float eps = 1e-5f;
  const MatrixF want = layer_norm_naive(x, gamma, beta, eps);
  MatrixF got(17, 24);
  layer_norm_into(x, gamma, beta, eps, got);
  swat::testing::expect_matrix_equal(got, want, "layer_norm_into vs naive");
}

TEST(LayerNormInto, InPlaceAliasingMatchesOutOfPlace) {
  Rng rng(22);
  const MatrixF x = random_normal(9, 16, rng, 2.0);
  std::vector<float> gamma(16, 1.0f), beta(16, 0.0f);
  const MatrixF want = layer_norm_naive(x, gamma, beta, 1e-5f);
  MatrixF inplace = x;
  layer_norm_into(inplace, gamma, beta, 1e-5f, inplace);
  swat::testing::expect_matrix_equal(inplace, want, "in-place layer_norm");
}

TEST(LayerNormInto, RejectsMismatchedAffineLength) {
  MatrixF x(2, 4);
  MatrixF out(2, 4);
  std::vector<float> gamma(3, 1.0f), beta(4, 0.0f);
  EXPECT_THROW(layer_norm_into(x, gamma, beta, 1e-5f, out),
               std::invalid_argument);
}

TEST(Gelu, TracksDoublePrecisionTanhForm) {
  // gelu evaluates the tanh form as x * sigmoid(2z) with its own exp; it
  // must stay within a few float ulps of the literal expression in double.
  const double c = std::sqrt(2.0 / 3.14159265358979323846);
  double worst = 0.0;
  for (int i = -400000; i <= 400000; ++i) {
    const float x = static_cast<float>(i) * 5e-5f;  // [-20, 20]
    const double xd = x;
    const double want =
        0.5 * xd * (1.0 + std::tanh(c * (xd + 0.044715 * xd * xd * xd)));
    const double err = std::fabs(static_cast<double>(gelu(x)) - want);
    worst = std::max(worst, err / std::max(std::fabs(want), 1.0));
  }
  EXPECT_LT(worst, 1e-6);
  EXPECT_EQ(gelu(0.0f), 0.0f);
  EXPECT_EQ(gelu(1e30f), 1e30f);
  EXPECT_EQ(gelu(-1e30f), 0.0f);
  EXPECT_EQ(gelu(INFINITY), INFINITY);
  EXPECT_TRUE(std::isnan(gelu(NAN)));
}

TEST(GeluInto, MatchesNaiveOracleBitExactIncludingInPlace) {
  Rng rng(23);
  const MatrixF x = random_normal(13, 31, rng, 4.0);
  const MatrixF want = gelu_naive(x);
  MatrixF got(13, 31);
  gelu_into(x, got);
  swat::testing::expect_matrix_equal(got, want, "gelu_into vs naive");
  MatrixF inplace = x;
  gelu_into(inplace, inplace);
  swat::testing::expect_matrix_equal(inplace, want, "in-place gelu");
}

TEST(AddRowsInto, MatchesNaiveOracleAndAliasing) {
  Rng rng(24);
  const MatrixF a = random_normal(11, 19, rng);
  const MatrixF b = random_normal(11, 19, rng);
  const MatrixF want = add_rows_naive(a, b);
  MatrixF got(11, 19);
  add_rows_into(a, b, got);
  swat::testing::expect_matrix_equal(got, want, "add_rows_into vs naive");
  // The residual-add form: out aliases the first operand.
  MatrixF acc = a;
  add_rows_into(acc, b, acc);
  swat::testing::expect_matrix_equal(acc, want, "in-place residual add");
}

TEST(AddRowsInto, RejectsShapeMismatch) {
  MatrixF a(2, 3), b(3, 2), out(2, 3);
  EXPECT_THROW(add_rows_into(a, b, out), std::invalid_argument);
}

TEST(PlanKernels, StridedViewsTouchOnlyTheViewedBlock) {
  // A non-contiguous view (stride > cols): rows 2..5, columns 1..3 of an
  // 8 x 6 matrix. The kernel must write exactly the viewed block and leave
  // every other element untouched.
  Rng rng(25);
  MatrixF big = random_normal(8, 6, rng);
  const MatrixF before = big;
  const MatrixView mid(big.data() + 2 * 6 + 1, 4, 3, 6);
  ASSERT_FALSE(mid.contiguous());
  MatrixF sub(4, 3);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) sub(i, j) = big(i + 2, j + 1);
  }
  gelu_into(static_cast<ConstMatrixView>(mid), mid);
  const MatrixF want = gelu_naive(sub);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      const bool viewed = i >= 2 && i < 6 && j >= 1 && j < 4;
      ASSERT_EQ(big(i, j), viewed ? want(i - 2, j - 1) : before(i, j))
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(ErrorMetrics, RowCosine) {
  MatrixF a(2, 2);
  a(0, 0) = 1.0f;
  a(0, 1) = 0.0f;
  a(1, 0) = 0.0f;
  a(1, 1) = 2.0f;
  MatrixF b = a;
  EXPECT_NEAR(mean_row_cosine(a, b), 1.0, 1e-9);
  // Orthogonal rows -> cosine 0.
  MatrixF c(1, 2);
  c(0, 0) = 1.0f;
  MatrixF d(1, 2);
  d(0, 1) = 1.0f;
  EXPECT_NEAR(mean_row_cosine(c, d), 0.0, 1e-9);
}

}  // namespace
}  // namespace swat
