#include "eval/figures.h"

#include <gtest/gtest.h>

namespace texrheo::eval {
namespace {

// Dataset with hand-authored term mixes and emulsion concentrations.
recipe::Dataset FigureDataset() {
  recipe::Dataset ds;
  const auto& dict = text::TextureDictionary::Embedded();
  (void)dict;
  auto add_doc = [&ds](std::vector<const char*> terms,
                       std::vector<double> emulsion) {
    recipe::Document doc;
    doc.recipe_index = ds.documents.size();
    for (const char* t : terms) {
      doc.term_ids.push_back(ds.term_vocab.Add(t));
    }
    doc.gel_feature = math::Vector(3, 5.0);
    doc.emulsion_feature = math::Vector(emulsion.size(), 5.0);
    doc.gel_concentration = math::Vector(3, 0.01);
    doc.emulsion_concentration = math::Vector(std::move(emulsion));
    ds.documents.push_back(std::move(doc));
  };
  // Doc 0: hard + elastic, milk-heavy.
  add_doc({"katai", "burinburin"}, {0.0, 0.0, 0.0, 0.0, 0.7, 0.0});
  // Doc 1: soft + crumbly, cream-heavy.
  add_doc({"fuwafuwa", "horohoro"}, {0.0, 0.0, 0.1, 0.3, 0.0, 0.0});
  // Doc 2: sticky only, no emulsions.
  add_doc({"nettori"}, {0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  // Doc 3: hard + hard + soft, milk-heavy (closest to milk dish).
  add_doc({"katai", "dossiri", "yuruyuru"}, {0.02, 0.0, 0.0, 0.0, 0.8, 0.0});
  return ds;
}

TEST(CountCategoriesTest, TallyMatchesDictionaryPoles) {
  recipe::Dataset ds = FigureDataset();
  const auto& dict = text::TextureDictionary::Embedded();
  TermCategoryCounts c0 = CountCategories(ds.documents[0], ds.term_vocab, dict);
  EXPECT_EQ(c0.hard, 1);
  EXPECT_EQ(c0.elastic, 1);
  EXPECT_EQ(c0.soft, 0);
  EXPECT_EQ(c0.total, 2);
  TermCategoryCounts c2 = CountCategories(ds.documents[2], ds.term_vocab, dict);
  EXPECT_EQ(c2.sticky, 1);
  EXPECT_EQ(c2.total, 1);
  TermCategoryCounts c3 = CountCategories(ds.documents[3], ds.term_vocab, dict);
  EXPECT_EQ(c3.hard, 2);
  EXPECT_EQ(c3.soft, 1);
}

TEST(RankByEmulsionKLTest, MilkDishRanksMilkRecipesFirst) {
  recipe::Dataset ds = FigureDataset();
  // A milk-jelly-like reference dish.
  math::Vector dish = {0.03, 0.0, 0.0, 0.0, 0.78, 0.0};
  auto ranked = RankByEmulsionKL(ds, {0, 1, 2, 3}, dish);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 4u);
  // Milk-heavy docs 3 and 0 come before the cream doc 1.
  EXPECT_TRUE((*ranked)[0].doc_index == 3 || (*ranked)[0].doc_index == 0);
  size_t cream_pos = 0, milk_pos = 0;
  for (size_t i = 0; i < ranked->size(); ++i) {
    if ((*ranked)[i].doc_index == 1) cream_pos = i;
    if ((*ranked)[i].doc_index == 3) milk_pos = i;
  }
  EXPECT_LT(milk_pos, cream_pos);
  // Sorted ascending.
  for (size_t i = 1; i < ranked->size(); ++i) {
    EXPECT_GE((*ranked)[i].divergence, (*ranked)[i - 1].divergence);
  }
}

TEST(RankByEmulsionKLTest, TiesKeepAscendingDocIndex) {
  // 48 recipes share one emulsion row, so every divergence ties; std::sort
  // with no tie-break scrambles runs of more than 16.
  recipe::Dataset ds;
  std::vector<size_t> indices;
  for (size_t d = 0; d < 48; ++d) {
    recipe::Document doc;
    doc.recipe_index = d;
    doc.emulsion_concentration = {0.0, 0.1, 0.0, 0.2, 0.3, 0.0};
    ds.documents.push_back(std::move(doc));
    indices.push_back(d);
  }
  math::Vector dish = {0.03, 0.0, 0.0, 0.0, 0.78, 0.0};
  auto ranked = RankByEmulsionKL(ds, indices, dish);
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked->size(), 48u);
  for (size_t i = 0; i < ranked->size(); ++i) {
    EXPECT_EQ((*ranked)[i].doc_index, i);
    EXPECT_EQ((*ranked)[i].divergence, (*ranked)[0].divergence);
  }
}

TEST(RankByEmulsionKLTest, RejectsOutOfRangeIndex) {
  recipe::Dataset ds = FigureDataset();
  math::Vector dish(6);
  EXPECT_FALSE(RankByEmulsionKL(ds, {99}, dish).ok());
}

TEST(BuildFig3HistogramTest, BinsPartitionRecipes) {
  recipe::Dataset ds = FigureDataset();
  math::Vector dish = {0.03, 0.0, 0.0, 0.0, 0.78, 0.0};
  auto ranked = RankByEmulsionKL(ds, {0, 1, 2, 3}, dish);
  ASSERT_TRUE(ranked.ok());
  auto bins = BuildFig3Histogram(ds, *ranked,
                                 text::TextureDictionary::Embedded(), 2);
  ASSERT_TRUE(bins.ok());
  ASSERT_EQ(bins->size(), 2u);
  int total_recipes = 0, total_terms = 0;
  for (const auto& bin : *bins) {
    total_recipes += bin.recipes;
    total_terms += bin.counts.total;
    EXPECT_LE(bin.kl_lo, bin.kl_hi);
  }
  EXPECT_EQ(total_recipes, 4);
  EXPECT_EQ(total_terms, 8);
}

TEST(BuildFig3HistogramTest, RejectsBadBinCount) {
  recipe::Dataset ds = FigureDataset();
  EXPECT_FALSE(
      BuildFig3Histogram(ds, {}, text::TextureDictionary::Embedded(), 0)
          .ok());
}

TEST(BuildFig3HistogramTest, EmptyRankingGivesEmptyBins) {
  recipe::Dataset ds = FigureDataset();
  auto bins = BuildFig3Histogram(ds, {},
                                 text::TextureDictionary::Embedded(), 3);
  ASSERT_TRUE(bins.ok());
  for (const auto& bin : *bins) EXPECT_EQ(bin.recipes, 0);
}

TEST(BuildFig4PointsTest, AxisScoresMatchHandComputation) {
  recipe::Dataset ds = FigureDataset();
  math::Vector dish = {0.03, 0.0, 0.0, 0.0, 0.78, 0.0};
  auto ranked = RankByEmulsionKL(ds, {0, 1, 2, 3}, dish);
  ASSERT_TRUE(ranked.ok());
  auto points =
      BuildFig4Points(ds, *ranked, text::TextureDictionary::Embedded());
  ASSERT_EQ(points.size(), 4u);
  for (const auto& p : points) {
    EXPECT_GE(p.hardness_score, -1.0);
    EXPECT_LE(p.hardness_score, 1.0);
    EXPECT_GE(p.kl_bucket, 0);
    EXPECT_LE(p.kl_bucket, 2);
    if (p.doc_index == 0) {
      // katai + burinburin: hardness (1-0)/2, cohesiveness (1-0)/2.
      EXPECT_DOUBLE_EQ(p.hardness_score, 0.5);
      EXPECT_DOUBLE_EQ(p.cohesiveness_score, 0.5);
    }
    if (p.doc_index == 1) {
      // fuwafuwa + horohoro: hardness -0.5, cohesiveness -0.5.
      EXPECT_DOUBLE_EQ(p.hardness_score, -0.5);
      EXPECT_DOUBLE_EQ(p.cohesiveness_score, -0.5);
    }
    if (p.doc_index == 3) {
      // 2 hard, 1 soft of 3 terms.
      EXPECT_NEAR(p.hardness_score, 1.0 / 3.0, 1e-12);
    }
  }
}

TEST(AxisCentroidTest, AveragesOverDocuments) {
  recipe::Dataset ds = FigureDataset();
  const auto& dict = text::TextureDictionary::Embedded();
  Fig4Point centroid = AxisCentroid(ds, {0, 1}, dict);
  // Combined counts: hard 1, soft 1, elastic 1, crumbly 1, total 4.
  EXPECT_DOUBLE_EQ(centroid.hardness_score, 0.0);
  EXPECT_DOUBLE_EQ(centroid.cohesiveness_score, 0.0);
}

TEST(AxisCentroidTest, EmptySelectionIsOrigin) {
  recipe::Dataset ds = FigureDataset();
  Fig4Point centroid =
      AxisCentroid(ds, {}, text::TextureDictionary::Embedded());
  EXPECT_DOUBLE_EQ(centroid.hardness_score, 0.0);
  EXPECT_DOUBLE_EQ(centroid.cohesiveness_score, 0.0);
}

}  // namespace
}  // namespace texrheo::eval
