#include "linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace synpa::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
        if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
    if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix multiply: shape mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            if (a == 0.0) continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) += a * rhs(k, c);
        }
    return out;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
    if (cols_ != v.size()) throw std::invalid_argument("Matrix-vector multiply: shape mismatch");
    std::vector<double> out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) out[r] += (*this)(r, c) * v[c];
    return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix add: shape mismatch");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
    return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
    if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
        throw std::invalid_argument("Matrix subtract: shape mismatch");
    Matrix out = *this;
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
    return out;
}

double Matrix::max_abs() const noexcept {
    double m = 0.0;
    for (double x : data_) m = std::max(m, std::abs(x));
    return m;
}

std::vector<double> solve_gaussian(Matrix a, std::vector<double> b) {
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n)
        throw std::invalid_argument("solve_gaussian: shape mismatch");
    std::vector<double> x(n);
    if (!gaussian_elimination(
            n, [&a](std::size_t r, std::size_t c) -> double& { return a(r, c); }, b, x))
        throw std::runtime_error("solve_gaussian: singular matrix");
    return x;
}

}  // namespace synpa::linalg
