#ifndef TEXRHEO_EVAL_FIGURES_H_
#define TEXRHEO_EVAL_FIGURES_H_

#include <cstddef>
#include <vector>

#include "math/linalg.h"
#include "recipe/dataset.h"
#include "text/texture_dictionary.h"
#include "util/status.h"

namespace texrheo::eval {

/// Counts of a document's texture terms per dictionary pole.
struct TermCategoryCounts {
  int hard = 0;
  int soft = 0;
  int elastic = 0;   ///< High-cohesiveness pole ("purupuru", "burinburin").
  int crumbly = 0;   ///< Low-cohesiveness pole ("horohoro", "bosoboso").
  int sticky = 0;
  int dry = 0;
  int total = 0;
};

/// Tallies the dictionary poles of one document's texture terms.
TermCategoryCounts CountCategories(const recipe::Document& doc,
                                   const text::Vocabulary& vocab,
                                   const text::TextureDictionary& dict);

/// One recipe ranked by similarity of its emulsion concentrations to a
/// reference dish (paper Section V.B).
struct RankedRecipe {
  size_t doc_index = 0;  ///< Into Dataset::documents.
  double divergence = 0.0;
};

/// Ranks `doc_indices` (ascending divergence, ties on ascending doc_index)
/// by discrete KL between each recipe's emulsion concentration
/// distribution and the dish's.
texrheo::StatusOr<std::vector<RankedRecipe>> RankByEmulsionKL(
    const recipe::Dataset& dataset, const std::vector<size_t>& doc_indices,
    const math::Vector& dish_emulsion_concentration,
    double smoothing = 1e-4);

/// One bin of the paper's Figure 3 histograms: recipes in a KL-rank band,
/// with counts of texture terms by pole.
struct Fig3Bin {
  double kl_lo = 0.0;  ///< Divergence range covered by this bin.
  double kl_hi = 0.0;
  int recipes = 0;
  TermCategoryCounts counts;  ///< Summed over the bin's recipes.
};

/// Buckets a ranked list into `num_bins` equal-population bins and tallies
/// term categories (Figure 3: hard/soft in (a), elastic/crumbly in (b)).
texrheo::StatusOr<std::vector<Fig3Bin>> BuildFig3Histogram(
    const recipe::Dataset& dataset, const std::vector<RankedRecipe>& ranked,
    const text::TextureDictionary& dict, int num_bins);

/// One recipe plotted on the paper's Figure 4 consolidated axes:
/// hardness score = (hard - soft) / total terms, cohesiveness score =
/// (elastic - crumbly) / total terms (softness is negative hardness;
/// crumbliness is the negative cohesiveness pole).
struct Fig4Point {
  size_t doc_index = 0;
  double hardness_score = 0.0;      ///< In [-1, 1].
  double cohesiveness_score = 0.0;  ///< In [-1, 1].
  double divergence = 0.0;
  int kl_bucket = 0;  ///< 0 = nearest third, 1 = middle, 2 = farthest.
};

/// Maps ranked recipes onto the consolidated axes with KL color buckets.
std::vector<Fig4Point> BuildFig4Points(
    const recipe::Dataset& dataset, const std::vector<RankedRecipe>& ranked,
    const text::TextureDictionary& dict);

/// Centroid of a set of documents on the consolidated axes (the "star" mark
/// of Figure 4: the topic's own term classification).
Fig4Point AxisCentroid(const recipe::Dataset& dataset,
                       const std::vector<size_t>& doc_indices,
                       const text::TextureDictionary& dict);

}  // namespace texrheo::eval

#endif  // TEXRHEO_EVAL_FIGURES_H_
