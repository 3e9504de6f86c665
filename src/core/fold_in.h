#ifndef TEXRHEO_CORE_FOLD_IN_H_
#define TEXRHEO_CORE_FOLD_IN_H_

#include <vector>

#include "util/rng.h"

namespace texrheo::core {

/// Eq.-5 fold-in of one unseen recipe against frozen topics, the kernel
/// behind JointTopicModel::FoldInTheta (count ratios) and
/// serve::ServingSnapshot::FoldInTheta (phi point estimates). Gibbs-samples
/// the recipe's own token topics z and concentration topic y for `sweeps`
/// two-block scans and returns
///   theta_k = (n_k + I[y = k] + alpha) / (N + 1 + K alpha).
///
/// `term_weights[n * K + k]` is P(term of token n | topic k) and
/// `log_density[k]` the recipe's concentration log-density under topic k
/// (K = log_density.size()). Both are constant for the whole fold-in, so
/// the caller computes them once per query. Draws only from `rng`; all
/// scratch is local, so concurrent calls with their own streams are safe.
std::vector<double> FoldInDocument(const std::vector<double>& term_weights,
                                   const std::vector<double>& log_density,
                                   int sweeps, double alpha, Rng& rng);

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_FOLD_IN_H_
