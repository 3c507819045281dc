// Unit and property tests for src/linalg: dense matrix ops, Gaussian solve,
// Householder-QR least squares and the ridge fallback.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace synpa::linalg;
using synpa::common::Rng;

TEST(Matrix, InitializerListAndAccess) {
    const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplyIsNoop) {
    const Matrix a = {{1, 2}, {3, 4}};
    const Matrix r = a * Matrix::identity(2);
    EXPECT_DOUBLE_EQ((r - a).max_abs(), 0.0);
}

TEST(Matrix, TransposeInvolution) {
    const Matrix a = {{1, 2, 3}, {4, 5, 6}};
    const Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_DOUBLE_EQ((t.transposed() - a).max_abs(), 0.0);
}

TEST(Matrix, MatVecKnownResult) {
    const Matrix a = {{1, 2}, {3, 4}};
    const std::vector<double> v = {1.0, 1.0};
    const auto r = a * v;
    EXPECT_DOUBLE_EQ(r[0], 3.0);
    EXPECT_DOUBLE_EQ(r[1], 7.0);
}

TEST(Matrix, ShapeMismatchThrows) {
    const Matrix a = {{1, 2}};
    const Matrix b = {{1, 2}};
    EXPECT_THROW(a * b, std::invalid_argument);
    EXPECT_THROW(a + b.transposed(), std::invalid_argument);
}

TEST(Gaussian, SolvesKnownSystem) {
    const Matrix a = {{2, 1}, {1, 3}};
    const auto x = solve_gaussian(a, {5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Gaussian, SingularThrows) {
    const Matrix a = {{1, 2}, {2, 4}};
    EXPECT_THROW(solve_gaussian(a, {1, 2}), std::runtime_error);
}

TEST(Gaussian, PropertyRandomSystemsRoundTrip) {
    Rng rng(99, 0);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 2 + rng.below(5);
        Matrix a(n, n);
        std::vector<double> x_true(n);
        for (std::size_t i = 0; i < n; ++i) {
            x_true[i] = rng.uniform(-3, 3);
            for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
            a(i, i) += static_cast<double>(n);  // diagonally dominant: nonsingular
        }
        const auto b = a * x_true;
        const auto x = solve_gaussian(a, b);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
    }
}

TEST(Gaussian, FixedSizeSolveMatchesBitForBit) {
    // solve_gaussian_fixed<6> against solve_gaussian on random systems:
    // general ones (pivoting), ones with exact zeros (the zero-factor skip),
    // ties in the pivot column (the strict-> rule), and singular ones (a
    // zero column, a repeated row, a row below the pivot threshold), where
    // the fixed solve must refuse exactly when solve_gaussian throws.
    constexpr std::size_t n = 6;
    Rng rng(0x6a55, 0);
    int solved = 0, refused = 0;
    for (int trial = 0; trial < 600; ++trial) {
        Matrix a(n, n);
        std::vector<double> b(n);
        for (std::size_t i = 0; i < n; ++i) {
            b[i] = rng.uniform(-2, 2);
            for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
        }
        const int kind = trial % 6;
        const std::size_t r = rng.below(n), s = (r + 1 + rng.below(n - 1)) % n;
        if (kind == 1)
            for (std::size_t j = 0; j < n; ++j)
                if (rng.chance(0.4)) a(r, j) = 0.0;
        if (kind == 2) a(s, 0) = -a(r, 0);  // |a| ties in the first pivot column
        if (kind == 3)
            for (std::size_t i = 0; i < n; ++i) a(i, r) = 0.0;
        if (kind == 4)
            for (std::size_t j = 0; j < n; ++j) a(s, j) = a(r, j);
        if (kind == 5)
            for (std::size_t j = 0; j < n; ++j) a(r, j) *= 1e-14;

        std::array<double, n * n> fa{};
        std::array<double, n> fb{}, fx{};
        for (std::size_t i = 0; i < n; ++i) {
            fb[i] = b[i];
            for (std::size_t j = 0; j < n; ++j) fa[i * n + j] = a(i, j);
        }
        const bool ok = solve_gaussian_fixed<n>(fa, fb, fx);
        std::vector<double> want;
        bool threw = false;
        try {
            want = solve_gaussian(a, b);
        } catch (const std::runtime_error&) {
            threw = true;
        }
        ASSERT_EQ(ok, !threw) << "trial " << trial;
        if (threw) {
            ++refused;
            continue;
        }
        ++solved;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(fx[i]), std::bit_cast<std::uint64_t>(want[i]))
                << "trial " << trial << " x" << i;
    }
    EXPECT_GT(solved, 250);
    EXPECT_GT(refused, 250);
}

TEST(LeastSquares, ExactFitRecoversCoefficients) {
    // y = 2 + 3x, noise-free.
    Matrix a(5, 2);
    std::vector<double> y(5);
    for (int i = 0; i < 5; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = i;
        y[i] = 2.0 + 3.0 * i;
    }
    const auto fit = least_squares(a, y);
    EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-10);
    EXPECT_NEAR(fit.coefficients[1], 3.0, 1e-10);
    EXPECT_NEAR(fit.mse, 0.0, 1e-12);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LeastSquares, PropertyRecoversPlantedModel) {
    Rng rng(123, 0);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 200;
        const std::vector<double> beta = {rng.uniform(-2, 2), rng.uniform(-2, 2),
                                          rng.uniform(-2, 2)};
        Matrix a(n, 3);
        std::vector<double> y(n);
        for (std::size_t i = 0; i < n; ++i) {
            a(i, 0) = 1.0;
            a(i, 1) = rng.uniform(0, 1);
            a(i, 2) = rng.uniform(0, 1);
            y[i] = beta[0] + beta[1] * a(i, 1) + beta[2] * a(i, 2) +
                   rng.uniform(-0.01, 0.01);
        }
        const auto fit = least_squares(a, y);
        for (int c = 0; c < 3; ++c) EXPECT_NEAR(fit.coefficients[c], beta[c], 0.05);
        EXPECT_LT(fit.mse, 1e-3);
    }
}

TEST(LeastSquares, RankDeficientThrows) {
    Matrix a(4, 2);
    std::vector<double> y(4, 1.0);
    for (int i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = 2.0;  // column 1 = 2 * column 0
    }
    EXPECT_THROW(least_squares(a, y), std::runtime_error);
}

TEST(LeastSquares, UnderdeterminedThrows) {
    Matrix a(2, 3);
    std::vector<double> y(2);
    EXPECT_THROW(least_squares(a, y), std::invalid_argument);
}

TEST(Ridge, HandlesCollinearDesign) {
    Matrix a(6, 2);
    std::vector<double> y(6);
    for (int i = 0; i < 6; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = 2.0;  // perfectly collinear
        y[i] = 4.0;
    }
    const auto fit = ridge_least_squares(a, y, 1e-6);
    // Prediction must still be correct even though coefficients are not
    // uniquely identified.
    EXPECT_NEAR(fit.coefficients[0] + 2.0 * fit.coefficients[1], 4.0, 1e-3);
}

TEST(Ridge, MatchesOlsOnWellConditionedData) {
    Rng rng(5, 0);
    Matrix a(50, 2);
    std::vector<double> y(50);
    for (int i = 0; i < 50; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = rng.uniform(0, 10);
        y[i] = 1.0 + 0.5 * a(i, 1);
    }
    const auto ols = least_squares(a, y);
    const auto ridge = ridge_least_squares(a, y, 1e-9);
    EXPECT_NEAR(ols.coefficients[0], ridge.coefficients[0], 1e-5);
    EXPECT_NEAR(ols.coefficients[1], ridge.coefficients[1], 1e-5);
}

}  // namespace
