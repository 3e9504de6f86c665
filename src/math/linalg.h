#ifndef TEXRHEO_MATH_LINALG_H_
#define TEXRHEO_MATH_LINALG_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/status.h"

namespace texrheo::math {

/// Dense column vector of doubles. Dimensions in this project are small
/// (gel space is 3-D, emulsion space is 6-D), so the implementation favors
/// clarity over blocking / SIMD.
class Vector {
 public:
  Vector() = default;
  explicit Vector(size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double s);

  /// Euclidean norm.
  double Norm() const;
  /// Sum of entries.
  double Sum() const;

  std::string ToString(int digits = 4) const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector a, const Vector& b);
Vector operator-(Vector a, const Vector& b);
Vector operator*(double s, Vector v);
double Dot(const Vector& a, const Vector& b);
bool operator==(const Vector& a, const Vector& b);

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Identity matrix scaled by `diag`.
  static Matrix Identity(size_t n, double diag = 1.0);
  /// Diagonal matrix from a vector.
  static Matrix Diagonal(const Vector& d);
  /// Outer product a b^T.
  static Matrix Outer(const Vector& a, const Vector& b);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);

  /// `*this += Outer(x, x)` and `*this -= Outer(x, x)` in place: the same
  /// products and sums, so the same bits, without the temporary matrix.
  Matrix& AddOuter(const Vector& x);
  Matrix& SubtractOuter(const Vector& x);

  /// Matrix-vector product.
  Vector Multiply(const Vector& v) const;
  /// Matrix-matrix product.
  Matrix Multiply(const Matrix& other) const;
  Matrix Transposed() const;
  double Trace() const;

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  double MaxAbsDiff(const Matrix& other) const;

  /// True if symmetric to within `tol`.
  bool IsSymmetric(double tol = 1e-9) const;

  std::string ToString(int digits = 4) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(double s, Matrix m);
bool operator==(const Matrix& a, const Matrix& b);

/// Cholesky factorization A = L L^T of a symmetric positive-definite matrix.
/// Factorization failure (non-PD input) is reported via Status rather than
/// by throwing.
class Cholesky {
 public:
  /// Factorizes `a`. Returns FailedPrecondition when `a` is not (numerically)
  /// positive definite.
  static texrheo::StatusOr<Cholesky> Factor(const Matrix& a);

  /// Lower-triangular factor L.
  const Matrix& L() const { return l_; }
  size_t dim() const { return l_.rows(); }

  /// log(det A) = 2 * sum(log diag(L)).
  double LogDet() const;

  /// Solves A x = b.
  Vector Solve(const Vector& b) const;

  /// Solves L y = b (forward substitution).
  Vector SolveLower(const Vector& b) const;

  /// A^{-1} via column-wise solves.
  Matrix Inverse() const;

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

/// Cholesky factorization with a jitter ladder for numerically stressed
/// input: when the plain factorization of `a` fails, retries with
/// `initial_jitter` added to the diagonal, escalating by 100x per attempt
/// up to `max_jitter`, and only then reports FailedPrecondition. A
/// well-conditioned matrix factors on the first (jitter-free) attempt, so
/// healthy chains are bit-identical to Cholesky::Factor; a marginally
/// non-PD posterior (round-off, collapsed topics) degrades gracefully
/// instead of aborting a long sampler run. Matrices containing NaN/Inf are
/// rejected outright — jitter cannot repair them.
texrheo::StatusOr<Cholesky> CholeskyWithJitter(const Matrix& a,
                                               double initial_jitter = 1e-10,
                                               double max_jitter = 1e-6);

/// Inverse of a symmetric positive-definite matrix; FailedPrecondition when
/// the Cholesky factorization fails.
texrheo::StatusOr<Matrix> InversePD(const Matrix& a);

/// Quadratic form (x-mu)^T A (x-mu).
double QuadraticForm(const Matrix& a, const Vector& x, const Vector& mu);

}  // namespace texrheo::math

#endif  // TEXRHEO_MATH_LINALG_H_
