// DocStore contract tests: record preparation (normalized emulsion row,
// sorted-unique terms, SGNS mean vector, float-stored norm), the three
// distances against independent references, the zero-norm cosine
// sentinel, the (distance, recipe_index) order with top-n selection, the
// screened kl ranking against the full one, and the base/delta segments
// behind Candidates.

#include "serve/doc_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "embed/embedding.h"
#include "math/divergence.h"
#include "util/rng.h"

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

/// NearestByKl against the full ranking it replaces: the same recipes with
/// the same divergence bits, in the same order.
::testing::AssertionResult SameAsFullKlRanking(
    const SimilarDoc& query, const std::vector<const SimilarDoc*>& candidates,
    size_t keep) {
  std::vector<SimilarRecipe> full = Score(KlDistance, query, candidates);
  KeepNearest(full, keep);
  const std::vector<SimilarRecipe> screened =
      NearestByKl(query, candidates, keep);
  if (screened.size() != full.size()) {
    return ::testing::AssertionFailure()
           << "keep " << keep << ": " << screened.size() << " recipes, not "
           << full.size();
  }
  for (size_t i = 0; i < full.size(); ++i) {
    if (screened[i].recipe_index != full[i].recipe_index ||
        std::bit_cast<uint64_t>(screened[i].divergence) !=
            std::bit_cast<uint64_t>(full[i].divergence)) {
      return ::testing::AssertionFailure()
             << "keep " << keep << ", rank " << i << ": recipe "
             << screened[i].recipe_index << " at " << screened[i].divergence
             << ", not " << full[i].recipe_index << " at "
             << full[i].divergence;
    }
  }
  return ::testing::AssertionSuccess();
}

/// One emulsion row of a kind a recipe or a query can carry: dense (kind
/// 0), sparse (1), 0/1 (2), tiny (3) or all zero (any other kind).
math::Vector RandomRow(Rng& rng, int kind) {
  math::Vector row(6);
  for (size_t i = 0; i < row.size(); ++i) {
    switch (kind) {
      case 0: row[i] = rng.NextDouble(); break;
      case 1: row[i] = rng.NextBernoulli(0.3) ? rng.NextDouble() : 0.0; break;
      case 2: row[i] = rng.NextBernoulli(0.5) ? 1.0 : 0.0; break;
      case 3: row[i] = std::ldexp(rng.NextDouble(), -30); break;
      default: row[i] = 0.0; break;
    }
  }
  return row;
}

TEST(DocStoreTest, NearestByKlIsTheFullRankingBitForBit) {
  Rng rng(2022);
  DocStore store(2, embed::EmbeddingView{});
  std::vector<math::Vector> rows;
  for (int d = 0; d < 400; ++d) {
    math::Vector row = RandomRow(rng, d % 6 == 5 ? 0 : d % 6);
    if (d % 6 == 5) {
      // Ingredients summed within a type: the row adds up to 6.
      double sum = 0.0;
      for (size_t i = 0; i < row.size(); ++i) sum += row[i];
      for (size_t i = 0; i < row.size(); ++i) row[i] *= 6.0 / sum;
    }
    if (d % 50 == 7) row[d % 6] = -0.01;  // Does not normalize: ranks +inf.
    if (d % 9 == 4) row = rows[rng.NextUint(rows.size())];  // Exact tie.
    rows.push_back(row);
    // Topic 1 holds a few records, fewer than most keeps below.
    const int topic = d % 40 == 0 ? 1 : 0;
    SimilarDoc doc = store.Prepare(topic, row, {});
    if (d < 300) {
      store.AppendBase(std::move(doc));
    } else {
      store.AppendDelta(static_cast<uint64_t>(d), std::move(doc));
    }
  }
  for (int topic : {0, 1}) {
    const std::vector<const SimilarDoc*> candidates = store.Candidates(topic);
    const size_t n = candidates.size();
    for (int q = 0; q <= 60; ++q) {
      // Wire ratios lie in [0, 1]; some queries repeat a recipe's row. The
      // last query no wire ratio makes: its other probabilities are so
      // small that p / q overflows inside KlDistance.
      math::Vector row = q % 10 == 9 ? rows[rng.NextUint(rows.size())]
                                     : RandomRow(rng, q % 5);
      for (size_t i = 0; i < row.size(); ++i) {
        row[i] = std::clamp(row[i], 0.0, 1.0);
      }
      if (q == 60) row = {1e305, 0.0, 0.0, 0.0, 0.0, 0.0};
      const SimilarDoc query = store.Prepare(topic, row, {});
      for (size_t keep : {size_t{0}, size_t{1}, size_t{3}, size_t{20}, n - 1,
                          n, n + 5}) {
        EXPECT_TRUE(SameAsFullKlRanking(query, candidates, keep))
            << "topic " << topic << ", query " << q;
      }
    }
  }
}

TEST(DocStoreTest, NearestByKlOrdersRoundingTiesLikeTheFullRanking) {
  // The 720 orderings of one row are equally far from a uniform query in
  // exact arithmetic; rounding splits them, and the screen must not drop
  // one the full ranking keeps.
  Rng rng(7);
  for (int set = 0; set < 8; ++set) {
    std::vector<double> row = {0.0, 0.05, 0.15, 0.2, 0.3, 0.45};
    if (set > 0) {
      for (double& x : row) x = rng.NextDouble();
      std::sort(row.begin(), row.end());
    }
    DocStore store(1, embed::EmbeddingView{});
    do {
      store.AppendBase(store.Prepare(0, math::Vector(row), {}));
    } while (std::next_permutation(row.begin(), row.end()));
    const std::vector<const SimilarDoc*> candidates = store.Candidates(0);
    ASSERT_EQ(candidates.size(), 720u);
    const SimilarDoc uniform = store.Prepare(0, math::Vector(6, 0.5), {});
    for (size_t keep : {size_t{1}, size_t{3}, size_t{20}, size_t{100},
                        size_t{719}}) {
      EXPECT_TRUE(SameAsFullKlRanking(uniform, candidates, keep))
          << "set " << set;
    }
  }
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
