// DocStore contract tests: record preparation (normalized emulsion row,
// sorted-unique terms, SGNS mean vector, float-stored norm), the three
// distances against independent references, the zero-norm cosine
// sentinel, the (distance, recipe_index) order with top-n selection, and
// the base/delta segments behind Candidates.

#include "serve/doc_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "embed/embedding.h"
#include "math/divergence.h"

namespace texrheo::serve {
namespace {

/// Hand-built 4-dim table: unit axis vectors plus one zero row (id 4).
embed::EmbeddingTable AxisTable() {
  embed::EmbeddingTable table;
  table.dim = 4;
  table.vectors = {
      1, 0, 0, 0,  // id 0
      0, 1, 0, 0,  // id 1
      0, 0, 1, 0,  // id 2
      0, 0, 0, 1,  // id 3
      0, 0, 0, 0,  // id 4: all-zero (e.g. a term never trained)
  };
  table.RecomputeNorms();
  return table;
}

const math::Vector kRow = {0.1, 0.2, 0.0, 0.05, 0.3, 0.0};

/// Appends one base record per term bag, all in `topic`.
void AppendBags(DocStore& store,
                const std::vector<std::vector<int32_t>>& bags, int topic = 0) {
  for (const std::vector<int32_t>& bag : bags) {
    store.AppendBase(store.Prepare(topic, kRow, bag));
  }
}

std::vector<size_t> Indices(const std::vector<SimilarRecipe>& ranking) {
  std::vector<size_t> out;
  for (const SimilarRecipe& r : ranking) out.push_back(r.recipe_index);
  return out;
}

TEST(DocStoreTest, MeanVectorAveragesInVocabTerms) {
  embed::EmbeddingTable table = AxisTable();
  DocStore store(1, embed::EmbeddingView::Of(table));
  SimilarDoc doc = store.Prepare(0, kRow, {1, 0, 1});
  EXPECT_EQ(doc.terms, (std::vector<int32_t>{0, 1}));  // Sorted-unique.
  EXPECT_EQ(doc.mean, (std::vector<float>{0.5f, 0.5f, 0.0f, 0.0f}));
  EXPECT_DOUBLE_EQ(doc.norm, std::sqrt(0.5));
  // Out-of-range ids are ignored, not averaged in as zeros.
  SimilarDoc junk = store.Prepare(0, kRow, {0, 1, 99, -3});
  EXPECT_EQ(junk.mean, doc.mean);
  // Without embeddings there is no vector at all.
  DocStore bare(1, embed::EmbeddingView{});
  EXPECT_TRUE(bare.Prepare(0, kRow, {0, 1}).mean.empty());
}

TEST(DocStoreTest, StoredRecordsKeepFloatNorms) {
  embed::EmbeddingTable table = AxisTable();
  DocStore store(1, embed::EmbeddingView::Of(table));
  AppendBags(store, {{0}, {0, 1}, {4}, {}});
  std::vector<const SimilarDoc*> docs = store.Candidates(0);
  ASSERT_EQ(docs.size(), 4u);
  for (size_t d = 0; d < docs.size(); ++d) EXPECT_EQ(docs[d]->recipe_index, d);
  EXPECT_EQ(docs[0]->norm, 1.0);
  // A stored norm is the float rounding of the norm a query would keep.
  const double query_norm = store.Prepare(0, kRow, {0, 1}).norm;
  EXPECT_NE(docs[1]->norm, query_norm);
  EXPECT_EQ(docs[1]->norm, static_cast<float>(query_norm));
  EXPECT_EQ(docs[2]->norm, 0.0);  // Zero vector.
  EXPECT_EQ(docs[3]->norm, 0.0);  // Empty bag.
}

TEST(DocStoreTest, ZeroNormSidesGetSentinelDistance) {
  embed::EmbeddingTable table = AxisTable();
  DocStore store(1, embed::EmbeddingView::Of(table));
  AppendBags(store, {{0}, {4}});
  std::vector<const SimilarDoc*> docs = store.Candidates(0);
  SimilarDoc query = store.Prepare(0, kRow, {0});
  // Real angle to recipe 0, sentinel to the zero-vector recipe 1.
  EXPECT_NEAR(CosineDistance(query, *docs[0]), 0.0, 1e-6);
  EXPECT_EQ(CosineDistance(query, *docs[1]), 2.0);
  // A zero-norm query is sentinel against everything.
  SimilarDoc zero = store.Prepare(0, kRow, {4});
  EXPECT_EQ(CosineDistance(zero, *docs[0]), 2.0);
}

TEST(DocStoreTest, CosineRankingMatchesDoublePrecisionReference) {
  embed::EmbeddingTable table;
  table.dim = 3;
  table.vectors = {
      0.9f,  0.1f,  0.0f,   //
      0.8f,  0.3f,  0.1f,   //
      -0.5f, 0.5f,  0.7f,   //
      0.0f,  -0.9f, 0.2f,   //
      0.3f,  0.3f,  0.3f,   //
      -0.2f, -0.2f, -0.9f,  //
  };
  table.RecomputeNorms();
  const std::vector<std::vector<int32_t>> bags = {
      {0}, {1}, {2}, {3}, {4}, {5}, {0, 2}, {1, 3}, {4, 5}};
  DocStore store(1, embed::EmbeddingView::Of(table));
  AppendBags(store, bags);
  const std::vector<int32_t> query_terms = {0, 4};
  std::vector<SimilarRecipe> ranked = Score(
      CosineDistance, store.Prepare(0, kRow, query_terms), store.Candidates(0));
  KeepNearest(ranked, bags.size());
  ASSERT_EQ(ranked.size(), bags.size());

  // Reference: every mean, norm and dot product from the table in double.
  auto mean = [&table](const std::vector<int32_t>& terms) {
    std::vector<double> m(3, 0.0);
    for (int32_t id : terms) {
      for (size_t i = 0; i < 3; ++i) m[i] += table.vec(id)[i];
    }
    for (double& x : m) x /= static_cast<double>(terms.size());
    return m;
  };
  auto norm = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x * x;
    return std::sqrt(sum);
  };
  const std::vector<double> q = mean(query_terms);
  std::vector<std::pair<double, size_t>> expected;
  for (size_t d = 0; d < bags.size(); ++d) {
    const std::vector<double> m = mean(bags[d]);
    double dot = 0.0;
    for (size_t i = 0; i < 3; ++i) dot += q[i] * m[i];
    expected.emplace_back(1.0 - dot / (norm(q) * norm(m)), d);
  }
  std::sort(expected.begin(), expected.end());
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].recipe_index, expected[i].second) << "rank " << i;
    // The store averages and stores norms in float, so agreement is to
    // float precision only.
    EXPECT_NEAR(ranked[i].divergence, expected[i].first, 1e-6)
        << "rank " << i;
  }
}

TEST(DocStoreTest, KlIsDiscreteKlOfRecipeAgainstQuery) {
  DocStore store(1, embed::EmbeddingView{});
  const math::Vector query_row = {0.0, 0.25, 0.05, 0.0, 0.1, 0.0};
  store.AppendBase(store.Prepare(0, kRow, {}));
  store.AppendBase(store.Prepare(0, math::Vector(6, 0.1), {}));
  store.AppendBase(store.Prepare(0, math::Vector(), {}));  // Unnormalizable.
  std::vector<const SimilarDoc*> docs = store.Candidates(0);
  SimilarDoc query = store.Prepare(0, query_row, {});
  for (size_t d = 0; d < 2; ++d) {
    auto reference = math::DiscreteKL(d == 0 ? kRow : math::Vector(6, 0.1),
                                      query_row, kEmulsionKlSmoothing);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(KlDistance(query, *docs[d]), *reference) << "recipe " << d;
  }
  EXPECT_EQ(KlDistance(query, *docs[2]),
            std::numeric_limits<double>::infinity());
}

TEST(DocStoreTest, JaccardOverSortedUniqueTerms) {
  DocStore store(1, embed::EmbeddingView{});
  SimilarDoc query = store.Prepare(0, kRow, {2, 1, 2});
  EXPECT_EQ(JaccardDistance(query, store.Prepare(0, kRow, {1, 2})), 0.0);
  EXPECT_DOUBLE_EQ(JaccardDistance(query, store.Prepare(0, kRow, {3, 1})),
                   1.0 - 1.0 / 3.0);
  EXPECT_EQ(JaccardDistance(query, store.Prepare(0, kRow, {})), 1.0);
}

TEST(DocStoreTest, TiesBreakOnAscendingRecipeIndex) {
  embed::EmbeddingTable table = AxisTable();
  DocStore store(1, embed::EmbeddingView::Of(table));
  AppendBags(store, {{0}, {0}, {0}});  // Identical: every distance ties.
  std::vector<const SimilarDoc*> docs = store.Candidates(0);
  std::vector<const SimilarDoc*> shuffled = {docs[2], docs[0], docs[1]};
  SimilarDoc query = store.Prepare(0, kRow, {0});
  for (DocDistance distance : {KlDistance, CosineDistance, JaccardDistance}) {
    std::vector<SimilarRecipe> ranked = Score(distance, query, shuffled);
    KeepNearest(ranked, 3);
    EXPECT_EQ(Indices(ranked), (std::vector<size_t>{0, 1, 2}));
  }
}

TEST(DocStoreTest, KeepNearestSelectsTheTopN) {
  std::vector<SimilarRecipe> ranking = {
      {0, 0.5}, {1, 0.1}, {2, 0.9}, {3, 0.1}, {4, 0.3}, {5, 0.7}};
  std::vector<SimilarRecipe> top = ranking;
  KeepNearest(top, 3);
  EXPECT_EQ(Indices(top), (std::vector<size_t>{1, 3, 4}));
  KeepNearest(ranking, 100);
  EXPECT_EQ(Indices(ranking), (std::vector<size_t>{1, 3, 4, 0, 5, 2}));
}

TEST(DocStoreTest, CandidatesAreTheTopicsBaseThenDeltaRecords) {
  embed::EmbeddingTable table = AxisTable();
  DocStore store(2, embed::EmbeddingView::Of(table));
  for (int32_t d = 0; d < 4; ++d) {
    store.AppendBase(store.Prepare(d % 2, kRow, {d}));
  }
  EXPECT_FALSE(store.AppendDelta(9, store.Prepare(1, kRow, {2})).has_value());
  std::vector<const SimilarDoc*> docs = store.Candidates(1);
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0]->recipe_index, 1u);
  EXPECT_EQ(docs[1]->recipe_index, 3u);
  EXPECT_EQ(docs[2]->recipe_index, 4u);  // Corpus size + arrival order.
  EXPECT_EQ(store.Candidates(0).size(), 2u);
  EXPECT_TRUE(store.Candidates(2).empty());  // No such topic.
  EXPECT_TRUE(store.Candidates(-1).empty());
  EXPECT_EQ(store.delta_size(), 1u);
}

TEST(DocStoreTest, DeltaKeepsOneRecordPerIngestSequence) {
  DocStore store(3, embed::EmbeddingView{});
  EXPECT_FALSE(store.AppendDelta(7, store.Prepare(2, kRow, {})).has_value());
  // The resident record's topic, not the new one's.
  EXPECT_EQ(store.AppendDelta(7, store.Prepare(0, kRow, {})), 2);
  EXPECT_EQ(store.DeltaTopic(7), 2);
  EXPECT_EQ(store.delta_size(), 1u);
  // Sequence 0 marks absorbed records: each append is a new record.
  const SimilarDoc absorbed = store.Prepare(1, kRow, {});
  EXPECT_FALSE(store.AppendDelta(0, absorbed).has_value());
  EXPECT_FALSE(store.AppendDelta(0, absorbed).has_value());
  EXPECT_FALSE(store.DeltaTopic(0).has_value());
  EXPECT_EQ(store.delta_size(), 3u);
}

}  // namespace
}  // namespace texrheo::serve
