#include "math/divergence.h"

#include <cmath>

namespace texrheo::math {

texrheo::StatusOr<Vector> NormalizeWeights(const Vector& w, double smoothing) {
  if (w.empty()) return Status::InvalidArgument("empty distribution");
  Vector p(w.size());
  double total = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] < 0.0) {
      return Status::InvalidArgument("negative weight in distribution");
    }
    p[i] = w[i] + smoothing;
    total += p[i];
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("distribution has zero total mass");
  }
  p *= 1.0 / total;
  return p;
}

double NormalizedKL(const Vector& p, const Vector& q) {
  double kl = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] > 0.0) kl += p[i] * std::log(p[i] / q[i]);
  }
  // Guard tiny negative round-off.
  return kl < 0.0 ? 0.0 : kl;
}

texrheo::StatusOr<double> DiscreteKL(const Vector& p, const Vector& q,
                                     double smoothing) {
  if (p.size() != q.size()) {
    return Status::InvalidArgument("KL: length mismatch");
  }
  TEXRHEO_ASSIGN_OR_RETURN(Vector pn, NormalizeWeights(p, smoothing));
  TEXRHEO_ASSIGN_OR_RETURN(Vector qn, NormalizeWeights(q, smoothing));
  return NormalizedKL(pn, qn);
}

texrheo::StatusOr<double> SymmetricDiscreteKL(const Vector& p, const Vector& q,
                                              double smoothing) {
  TEXRHEO_ASSIGN_OR_RETURN(double a, DiscreteKL(p, q, smoothing));
  TEXRHEO_ASSIGN_OR_RETURN(double b, DiscreteKL(q, p, smoothing));
  return a + b;
}

texrheo::StatusOr<double> JensenShannon(const Vector& p, const Vector& q,
                                        double smoothing) {
  if (p.size() != q.size()) {
    return Status::InvalidArgument("JS: length mismatch");
  }
  TEXRHEO_ASSIGN_OR_RETURN(Vector pn, NormalizeWeights(p, smoothing));
  TEXRHEO_ASSIGN_OR_RETURN(Vector qn, NormalizeWeights(q, smoothing));
  double js = 0.0;
  for (size_t i = 0; i < pn.size(); ++i) {
    double m = 0.5 * (pn[i] + qn[i]);
    if (pn[i] > 0.0) js += 0.5 * pn[i] * std::log(pn[i] / m);
    if (qn[i] > 0.0) js += 0.5 * qn[i] * std::log(qn[i] / m);
  }
  return js < 0.0 ? 0.0 : js;
}

texrheo::StatusOr<double> Hellinger(const Vector& p, const Vector& q,
                                    double smoothing) {
  if (p.size() != q.size()) {
    return Status::InvalidArgument("Hellinger: length mismatch");
  }
  TEXRHEO_ASSIGN_OR_RETURN(Vector pn, NormalizeWeights(p, smoothing));
  TEXRHEO_ASSIGN_OR_RETURN(Vector qn, NormalizeWeights(q, smoothing));
  double bc = 0.0;  // Bhattacharyya coefficient.
  for (size_t i = 0; i < pn.size(); ++i) bc += std::sqrt(pn[i] * qn[i]);
  double h2 = 1.0 - bc;
  return std::sqrt(h2 < 0.0 ? 0.0 : h2);
}

}  // namespace texrheo::math
