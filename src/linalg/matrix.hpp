// Minimal dense linear algebra: just enough for least-squares regression
// (Householder QR), the model-inversion Jacobians, and tests.  Row-major
// storage, bounds-checked element access in debug builds via assert.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

namespace synpa::linalg {

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Builds from nested initializer lists; all rows must be equally long.
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    static Matrix identity(std::size_t n);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    bool empty() const noexcept { return data_.empty(); }

    double& operator()(std::size_t r, std::size_t c) noexcept {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const noexcept {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    Matrix transposed() const;
    Matrix operator*(const Matrix& rhs) const;
    std::vector<double> operator*(const std::vector<double>& v) const;
    Matrix operator+(const Matrix& rhs) const;
    Matrix operator-(const Matrix& rhs) const;

    /// Largest absolute element (max norm); 0 for an empty matrix.
    double max_abs() const noexcept;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// Partial-pivoting Gaussian elimination and back substitution on `n`
/// unknowns, in place: `at(r, c)` is a reference to the matrix element,
/// `b` the right-hand side, `x` receives the solution.  The pivot is the
/// first row with the strictly largest |a|; returns false at a pivot below
/// 1e-12.  solve_gaussian and solve_gaussian_fixed share it, so their bits
/// match.
template <class At, class Vec>
bool gaussian_elimination(std::size_t n, At&& at, Vec& b, Vec& x) noexcept {
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::abs(at(r, col)) > std::abs(at(pivot, col))) pivot = r;
        if (std::abs(at(pivot, col)) < 1e-12) return false;
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c) std::swap(at(pivot, c), at(col, c));
            std::swap(b[pivot], b[col]);
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = at(r, col) / at(col, col);
            if (f == 0.0) continue;
            for (std::size_t c = col; c < n; ++c) at(r, c) -= f * at(col, c);
            b[r] -= f * b[col];
        }
    }
    for (std::size_t ri = n; ri-- > 0;) {
        double acc = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c) acc -= at(ri, c) * x[c];
        x[ri] = acc / at(ri, ri);
    }
    return true;
}

/// Solves the square system A x = b with partial-pivoting Gaussian
/// elimination.  Throws std::runtime_error if A is (numerically) singular.
std::vector<double> solve_gaussian(Matrix a, std::vector<double> b);

/// solve_gaussian for a fixed size on the stack, without allocating:
/// row-major `a` and `b` are overwritten and `x` receives the solution.
/// Returns false where solve_gaussian throws.
template <std::size_t N>
bool solve_gaussian_fixed(std::array<double, N * N>& a, std::array<double, N>& b,
                          std::array<double, N>& x) noexcept {
    return gaussian_elimination(
        N, [&a](std::size_t r, std::size_t c) -> double& { return a[r * N + c]; }, b, x);
}

}  // namespace synpa::linalg
