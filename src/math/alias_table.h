#ifndef TEXRHEO_MATH_ALIAS_TABLE_H_
#define TEXRHEO_MATH_ALIAS_TABLE_H_

#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace texrheo::math {

/// Walker's alias method: O(n) construction, O(1) categorical sampling.
/// Used for the SGNS and word2vec negative-sampling noise distributions.
class AliasTable {
 public:
  /// Builds the table from unnormalized non-negative weights; requires at
  /// least one strictly positive weight.
  static texrheo::StatusOr<AliasTable> Build(
      const std::vector<double>& weights);

  /// Draws an index distributed proportionally to the build weights.
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

  /// Sum of the (unnormalized) build weights, as accumulated at Build time.
  /// Lets callers convert a table's normalized draws back into the original
  /// weight scale without re-summing.
  double total_weight() const { return total_weight_; }

  /// Probability mass assigned to index i (reconstructed; for tests).
  double MassOf(size_t i) const;

 private:
  std::vector<double> prob_;
  std::vector<size_t> alias_;
  double total_weight_ = 0.0;
};

}  // namespace texrheo::math

#endif  // TEXRHEO_MATH_ALIAS_TABLE_H_
