#include "math/alias_table.h"

#include <cassert>

namespace texrheo::math {

texrheo::StatusOr<AliasTable> AliasTable::Build(
    const std::vector<double>& weights) {
  size_t n = weights.size();
  if (n == 0) return Status::InvalidArgument("alias table: no weights");
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("alias table: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("alias table: all weights are zero");
  }

  AliasTable table;
  std::vector<double>& prob = table.prob_;
  std::vector<size_t>& alias = table.alias_;
  prob.resize(n);
  alias.resize(n);
  // Scaled probabilities; average is exactly 1. The expression keeps the
  // multiply-before-divide order: hoisting n / total into a reciprocal
  // overflows to inf when the weights (and hence total) are denormal.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<size_t> small;
  std::vector<size_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.back();
    small.pop_back();
    size_t l = large.back();
    large.pop_back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Remaining buckets are (numerically) full.
  for (size_t s : small) {
    prob[s] = 1.0;
    alias[s] = s;
  }
  for (size_t l : large) {
    prob[l] = 1.0;
    alias[l] = l;
  }
  table.total_weight_ = total;
  return table;
}

size_t AliasTable::Sample(Rng& rng) const {
  size_t i = rng.NextUint(prob_.size());
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

double AliasTable::MassOf(size_t i) const {
  assert(i < prob_.size());
  double n = static_cast<double>(prob_.size());
  double mass = prob_[i] / n;
  for (size_t j = 0; j < prob_.size(); ++j) {
    if (alias_[j] == i && j != i) mass += (1.0 - prob_[j]) / n;
  }
  return mass;
}

}  // namespace texrheo::math
