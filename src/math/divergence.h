#ifndef TEXRHEO_MATH_DIVERGENCE_H_
#define TEXRHEO_MATH_DIVERGENCE_H_

#include "math/linalg.h"
#include "util/status.h"

namespace texrheo::math {

/// KL(p || q) between discrete distributions given as unnormalized
/// non-negative weight vectors of equal length. Both are normalized
/// internally; `smoothing` is added to every component first so that
/// zero-mass components (ubiquitous in concentration vectors: most recipes
/// lack most emulsions) do not produce infinities. This is the divergence
/// the paper uses to rank recipes by emulsion-concentration similarity
/// (Section V.B, Figures 3-4).
texrheo::StatusOr<double> DiscreteKL(const Vector& p, const Vector& q,
                                     double smoothing = 1e-6);

/// DiscreteKL's first step: `smoothing` added to every non-negative weight,
/// then scaled to sum to one. Callers comparing many distributions against
/// one normalize each once and call NormalizedKL per pair, with results
/// bit-identical to DiscreteKL's.
texrheo::StatusOr<Vector> NormalizeWeights(const Vector& w, double smoothing);

/// DiscreteKL's second step: KL(p || q) over two NormalizeWeights results
/// of equal length.
double NormalizedKL(const Vector& p, const Vector& q);

/// Symmetrized KL: KL(p||q) + KL(q||p).
texrheo::StatusOr<double> SymmetricDiscreteKL(const Vector& p, const Vector& q,
                                              double smoothing = 1e-6);

/// Jensen–Shannon divergence (base e), bounded by log 2.
texrheo::StatusOr<double> JensenShannon(const Vector& p, const Vector& q,
                                        double smoothing = 1e-6);

/// Hellinger distance between discrete distributions, in [0, 1].
texrheo::StatusOr<double> Hellinger(const Vector& p, const Vector& q,
                                    double smoothing = 1e-6);

}  // namespace texrheo::math

#endif  // TEXRHEO_MATH_DIVERGENCE_H_
