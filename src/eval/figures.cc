#include "eval/figures.h"

#include <algorithm>

#include "math/divergence.h"

namespace texrheo::eval {

TermCategoryCounts CountCategories(const recipe::Document& doc,
                                   const text::Vocabulary& vocab,
                                   const text::TextureDictionary& dict) {
  TermCategoryCounts counts;
  for (int32_t id : doc.term_ids) {
    const text::TextureTerm* term = dict.Find(vocab.WordOf(id));
    if (term == nullptr) continue;
    ++counts.total;
    if (text::IsHardTerm(*term)) ++counts.hard;
    if (text::IsSoftTerm(*term)) ++counts.soft;
    if (text::IsElasticTerm(*term)) ++counts.elastic;
    if (text::IsCrumblyTerm(*term)) ++counts.crumbly;
    if (text::IsStickyTerm(*term)) ++counts.sticky;
    if (term->axis == text::TextureAxis::kAdhesiveness && term->polarity < 0) {
      ++counts.dry;
    }
  }
  return counts;
}

texrheo::StatusOr<std::vector<RankedRecipe>> RankByEmulsionKL(
    const recipe::Dataset& dataset, const std::vector<size_t>& doc_indices,
    const math::Vector& dish_emulsion_concentration, double smoothing) {
  std::vector<RankedRecipe> ranked;
  ranked.reserve(doc_indices.size());
  for (size_t idx : doc_indices) {
    if (idx >= dataset.documents.size()) {
      return Status::OutOfRange("document index out of range");
    }
    TEXRHEO_ASSIGN_OR_RETURN(
        double kl,
        math::DiscreteKL(dataset.documents[idx].emulsion_concentration,
                         dish_emulsion_concentration, smoothing));
    ranked.push_back(RankedRecipe{idx, kl});
  }
  // Ties keep ascending doc_index, the order serve::DocStore's Nearer
  // gives SIMILAR mode=kl; std::sort alone scrambles more than 16 ties.
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedRecipe& a, const RankedRecipe& b) {
              if (a.divergence != b.divergence) {
                return a.divergence < b.divergence;
              }
              return a.doc_index < b.doc_index;
            });
  return ranked;
}

texrheo::StatusOr<std::vector<Fig3Bin>> BuildFig3Histogram(
    const recipe::Dataset& dataset, const std::vector<RankedRecipe>& ranked,
    const text::TextureDictionary& dict, int num_bins) {
  if (num_bins < 1) return Status::InvalidArgument("num_bins < 1");
  std::vector<Fig3Bin> bins(static_cast<size_t>(num_bins));
  if (ranked.empty()) return bins;
  size_t per_bin =
      (ranked.size() + static_cast<size_t>(num_bins) - 1) /
      static_cast<size_t>(num_bins);
  for (size_t i = 0; i < ranked.size(); ++i) {
    size_t b = std::min(i / per_bin, bins.size() - 1);
    Fig3Bin& bin = bins[b];
    if (bin.recipes == 0) bin.kl_lo = ranked[i].divergence;
    bin.kl_hi = ranked[i].divergence;
    ++bin.recipes;
    TermCategoryCounts c = CountCategories(
        dataset.documents[ranked[i].doc_index], dataset.term_vocab, dict);
    bin.counts.hard += c.hard;
    bin.counts.soft += c.soft;
    bin.counts.elastic += c.elastic;
    bin.counts.crumbly += c.crumbly;
    bin.counts.sticky += c.sticky;
    bin.counts.dry += c.dry;
    bin.counts.total += c.total;
  }
  return bins;
}

namespace {

Fig4Point AxisPoint(const TermCategoryCounts& c) {
  Fig4Point p;
  if (c.total > 0) {
    p.hardness_score =
        static_cast<double>(c.hard - c.soft) / static_cast<double>(c.total);
    p.cohesiveness_score = static_cast<double>(c.elastic - c.crumbly) /
                           static_cast<double>(c.total);
  }
  return p;
}

}  // namespace

std::vector<Fig4Point> BuildFig4Points(
    const recipe::Dataset& dataset, const std::vector<RankedRecipe>& ranked,
    const text::TextureDictionary& dict) {
  std::vector<Fig4Point> points;
  points.reserve(ranked.size());
  size_t third = ranked.size() / 3 + 1;
  for (size_t i = 0; i < ranked.size(); ++i) {
    TermCategoryCounts c = CountCategories(
        dataset.documents[ranked[i].doc_index], dataset.term_vocab, dict);
    Fig4Point p = AxisPoint(c);
    p.doc_index = ranked[i].doc_index;
    p.divergence = ranked[i].divergence;
    p.kl_bucket = static_cast<int>(std::min<size_t>(i / third, 2));
    points.push_back(p);
  }
  return points;
}

Fig4Point AxisCentroid(const recipe::Dataset& dataset,
                       const std::vector<size_t>& doc_indices,
                       const text::TextureDictionary& dict) {
  TermCategoryCounts sum;
  for (size_t idx : doc_indices) {
    TermCategoryCounts c =
        CountCategories(dataset.documents[idx], dataset.term_vocab, dict);
    sum.hard += c.hard;
    sum.soft += c.soft;
    sum.elastic += c.elastic;
    sum.crumbly += c.crumbly;
    sum.sticky += c.sticky;
    sum.dry += c.dry;
    sum.total += c.total;
  }
  return AxisPoint(sum);
}

}  // namespace texrheo::eval
