#include "core/fold_in.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace texrheo::core {

std::vector<double> FoldInDocument(const std::vector<double>& term_weights,
                                   const std::vector<double>& log_density,
                                   int sweeps, double alpha, Rng& rng) {
  const size_t k_count = log_density.size();
  const size_t tokens = term_weights.size() / k_count;
  // Local assignment state; the topics stay frozen (standard fold-in:
  // corpus statistics are treated as the posterior).
  std::vector<int> local_z(tokens);
  std::vector<int> local_n_k(k_count, 0);
  for (size_t n = 0; n < tokens; ++n) {
    const int k = static_cast<int>(rng.NextUint(k_count));
    local_z[n] = k;
    ++local_n_k[static_cast<size_t>(k)];
  }
  int local_y = static_cast<int>(rng.NextUint(k_count));

  std::vector<double> weights(k_count);
  std::vector<double> log_w(k_count);
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (size_t n = 0; n < tokens; ++n) {
      const double* term = &term_weights[n * k_count];
      --local_n_k[static_cast<size_t>(local_z[n])];
      double total = 0.0;
      for (size_t k = 0; k < k_count; ++k) {
        weights[k] = (static_cast<double>(local_n_k[k]) +
                      (local_y == static_cast<int>(k) ? 1.0 : 0.0) + alpha) *
                     term[k];
        total += weights[k];
      }
      if (total <= 0.0) {
        // Every topic gives this term zero mass (possible for a phi that
        // zeroes the term); fall back to the prior.
        for (double& w : weights) w = 1.0;
      }
      local_z[n] = static_cast<int>(rng.NextCategorical(weights));
      ++local_n_k[static_cast<size_t>(local_z[n])];
    }
    for (size_t k = 0; k < k_count; ++k) {
      log_w[k] =
          std::log(static_cast<double>(local_n_k[k]) + alpha) + log_density[k];
    }
    std::optional<size_t> y = rng.NextCategoricalFromLogs(log_w, weights);
    if (!y) {
      // No topic's weight is finite (a non-finite feature, or one so far
      // out that every log-density is -inf): the counts alone decide.
      for (size_t k = 0; k < k_count; ++k) {
        weights[k] = static_cast<double>(local_n_k[k]) + alpha;
      }
      y = rng.NextCategorical(weights);
    }
    local_y = static_cast<int>(*y);
  }

  const double n_d = static_cast<double>(tokens);
  const double alpha_sum = alpha * static_cast<double>(k_count);
  std::vector<double> theta(k_count);
  for (size_t k = 0; k < k_count; ++k) {
    theta[k] = (static_cast<double>(local_n_k[k]) +
                (local_y == static_cast<int>(k) ? 1.0 : 0.0) + alpha) /
               (n_d + 1.0 + alpha_sum);
  }
  return theta;
}

}  // namespace texrheo::core
