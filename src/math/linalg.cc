#include "math/linalg.h"

#include <cmath>

#include "util/string_util.h"

namespace texrheo::math {

Vector& Vector::operator+=(const Vector& other) {
  assert(size() == other.size());
  for (size_t i = 0; i < size(); ++i) data_[i] += other[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  assert(size() == other.size());
  for (size_t i = 0; i < size(); ++i) data_[i] -= other[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Vector::Norm() const { return std::sqrt(Dot(*this, *this)); }

double Vector::Sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

std::string Vector::ToString(int digits) const {
  std::string out = "[";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += FormatDouble(data_[i], digits);
  }
  out += "]";
  return out;
}

Vector operator+(Vector a, const Vector& b) { return a += b; }
Vector operator-(Vector a, const Vector& b) { return a -= b; }
Vector operator*(double s, Vector v) { return v *= s; }

double Dot(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

bool operator==(const Vector& a, const Vector& b) {
  return a.data() == b.data();
}

Matrix Matrix::Identity(size_t n, double diag) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = diag;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::Outer(const Vector& a, const Vector& b) {
  Matrix m(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) m(i, j) = a[i] * b[j];
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::AddOuter(const Vector& x) {
  assert(rows_ == x.size() && cols_ == x.size());
  const double* xs = x.data().data();
  double* m = data_.data();
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = xs[r];
    for (size_t c = 0; c < cols_; ++c) m[r * cols_ + c] += xr * xs[c];
  }
  return *this;
}

Matrix& Matrix::SubtractOuter(const Vector& x) {
  assert(rows_ == x.size() && cols_ == x.size());
  const double* xs = x.data().data();
  double* m = data_.data();
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = xs[r];
    for (size_t c = 0; c < cols_; ++c) m[r * cols_ + c] -= xr * xs[c];
  }
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Vector Matrix::Multiply(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (size_t c = 0; c < cols_; ++c) s += (*this)(r, c) * v[c];
    out[r] = s;
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::Trace() const {
  assert(rows_ == cols_);
  double s = 0.0;
  for (size_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  }
  return m;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = r + 1; c < cols_; ++c) {
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

std::string Matrix::ToString(int digits) const {
  std::string out;
  for (size_t r = 0; r < rows_; ++r) {
    out += "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += FormatDouble((*this)(r, c), digits);
    }
    out += "]\n";
  }
  return out;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(double s, Matrix m) { return m *= s; }

bool operator==(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.MaxAbsDiff(b) == 0.0;
}

texrheo::StatusOr<Cholesky> Cholesky::Factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::FailedPrecondition(
          "matrix is not positive definite (pivot " +
          FormatDouble(diag, 6) + " at column " + std::to_string(j) + ")");
    }
    l(j, j) = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return Cholesky(std::move(l));
}

double Cholesky::LogDet() const {
  double s = 0.0;
  for (size_t i = 0; i < l_.rows(); ++i) s += std::log(l_(i, i));
  return 2.0 * s;
}

Vector Cholesky::SolveLower(const Vector& b) const {
  size_t n = dim();
  assert(b.size() == n);
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l_(i, k) * y[k];
    y[i] = s / l_(i, i);
  }
  return y;
}

Vector Cholesky::Solve(const Vector& b) const {
  size_t n = dim();
  Vector y = SolveLower(b);
  // Back substitution with L^T.
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
    x[ii] = s / l_(ii, ii);
  }
  return x;
}

Matrix Cholesky::Inverse() const {
  size_t n = dim();
  Matrix inv(n, n);
  for (size_t c = 0; c < n; ++c) {
    Vector e(n);
    e[c] = 1.0;
    Vector x = Solve(e);
    for (size_t r = 0; r < n; ++r) inv(r, c) = x[r];
  }
  // Symmetrize to suppress round-off drift.
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = r + 1; c < n; ++c) {
      double avg = 0.5 * (inv(r, c) + inv(c, r));
      inv(r, c) = avg;
      inv(c, r) = avg;
    }
  }
  return inv;
}

texrheo::StatusOr<Cholesky> CholeskyWithJitter(const Matrix& a,
                                               double initial_jitter,
                                               double max_jitter) {
  auto plain = Cholesky::Factor(a);
  if (plain.ok()) return plain;
  if (a.rows() != a.cols()) return plain;
  for (size_t i = 0; i < a.rows() * a.cols(); ++i) {
    if (!std::isfinite(a(i / a.cols(), i % a.cols()))) {
      return Status::FailedPrecondition(
          "matrix contains non-finite entries; jitter cannot repair it");
    }
  }
  for (double jitter = initial_jitter; jitter <= max_jitter; jitter *= 100.0) {
    Matrix damped = a;
    for (size_t i = 0; i < a.rows(); ++i) damped(i, i) += jitter;
    auto attempt = Cholesky::Factor(damped);
    if (attempt.ok()) return attempt;
  }
  return Status::FailedPrecondition(
      plain.status().message() + "; still not PD after diagonal jitter up to " +
      FormatDouble(max_jitter, 8));
}

texrheo::StatusOr<Matrix> InversePD(const Matrix& a) {
  TEXRHEO_ASSIGN_OR_RETURN(Cholesky chol, Cholesky::Factor(a));
  return chol.Inverse();
}

double QuadraticForm(const Matrix& a, const Vector& x, const Vector& mu) {
  assert(a.rows() == a.cols() && a.rows() == x.size() && x.size() == mu.size());
  Vector d = x;
  d -= mu;
  return Dot(d, a.Multiply(d));
}

}  // namespace texrheo::math
