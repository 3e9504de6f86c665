// QueryEngine: all four query types, result caching, fold-in stream
// determinism, admission control and deadlines, concurrent mixed-type
// queries, and hot reload with zero in-flight failures. Runs on a
// hand-built two-topic model so the suite stays fast; ci.sh re-runs it
// under TSan.

#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/model_binary.h"
#include "embed/embedding.h"
#include "math/distributions.h"
#include "obs/metrics.h"
#include "recipe/dataset.h"
#include "recipe/ingredient.h"
#include "serve/snapshot.h"

namespace texrheo::serve {
namespace {

math::Gaussian MakeGaussian(double mean, size_t dim) {
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, mean),
                                         math::Matrix::Identity(dim, 4.0));
  EXPECT_TRUE(g.ok());
  return *g;
}

/// Topic 0: hard, gel features near 2. Topic 1: elastic, features near 6.
core::ModelSnapshot TinyModel() {
  core::ModelSnapshot model;
  model.vocab.Add("katai");
  model.vocab.Add("purupuru");
  model.vocab.Add("fuwafuwa");
  model.vocab.Add("zzz-not-a-texture-word");
  model.estimates.phi = {{0.7, 0.1, 0.1, 0.1}, {0.05, 0.75, 0.1, 0.1}};
  model.estimates.gel_topics = {MakeGaussian(2.0, 3), MakeGaussian(6.0, 3)};
  model.estimates.emulsion_topics = {MakeGaussian(1.0, 6),
                                     MakeGaussian(3.0, 6)};
  model.estimates.topic_recipe_count = {3, 3};
  return model;
}

std::shared_ptr<const ServingSnapshot> TinySnapshot(
    const std::string& label = "tiny") {
  auto snapshot = ServingSnapshot::FromModel(TinyModel(), label);
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

/// Six documents, three per topic (by gel feature), with emulsion
/// concentrations at increasing distance from {0.1 x6}.
recipe::Dataset TinyCorpus() {
  recipe::Dataset ds;
  ds.term_vocab.Add("katai");
  for (int i = 0; i < 6; ++i) {
    recipe::Document doc;
    doc.recipe_index = static_cast<size_t>(i);
    doc.term_ids = {0};
    doc.gel_feature = math::Vector(3, i < 3 ? 2.0 : 6.0);
    doc.gel_concentration = math::Vector(3, 0.01);
    doc.emulsion_feature = math::Vector(6, 1.0);
    doc.emulsion_concentration = math::Vector(6, 0.1 + 0.05 * (i % 3));
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

QueryEngineConfig FastConfig() {
  QueryEngineConfig config;
  config.fold_in_sweeps = 10;
  return config;
}

TextureQuery HardQuery() {
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.texture_terms = {"katai", "katai"};
  return query;
}

TEST(QueryEngineTest, CreateValidatesConfig) {
  auto corpus = TinyCorpus();
  QueryEngineConfig bad = FastConfig();
  bad.fold_in_sweeps = 0;
  EXPECT_FALSE(QueryEngine::Create(bad, TinySnapshot(), &corpus).ok());
  bad = FastConfig();
  bad.cache_quantum = 0.0;
  EXPECT_FALSE(QueryEngine::Create(bad, TinySnapshot(), &corpus).ok());
  bad = FastConfig();
  bad.alpha = -1.0;
  EXPECT_FALSE(QueryEngine::Create(bad, TinySnapshot(), &corpus).ok());
  EXPECT_FALSE(QueryEngine::Create(FastConfig(), nullptr, &corpus).ok());
}

TEST(QueryEngineTest, PredictTextureAnswersAndCaches) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto first = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->from_cache);
  ASSERT_EQ(first->theta.size(), 2u);
  EXPECT_NEAR(first->theta[0] + first->theta[1], 1.0, 1e-9);
  EXPECT_FALSE(first->top_terms.empty());
  EXPECT_NE(first->model_fingerprint, 0u);

  auto second = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->theta, first->theta);
  EXPECT_EQ(second->topic, first->topic);

  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.batcher.admitted, 1u);  // Only the miss folded in.
  EXPECT_EQ(stats.predict.count, 2u);
}

TEST(QueryEngineTest, CacheKeyIsIngredientOrderIndependent) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto a = QueryFromIngredients({{"gelatin", 0.01}, {"milk", 0.2}},
                                {"katai", "purupuru"});
  auto b = QueryFromIngredients({{"milk", 0.2}, {"gelatin", 0.01}},
                                {"purupuru", "katai"});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*engine)->PredictTexture(*a).ok());
  auto hit = (*engine)->PredictTexture(*b);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
}

TEST(QueryEngineTest, UnknownTermsAreCountedNotFatal) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query = HardQuery();
  query.texture_terms = {"katai", "not-in-vocab"};
  ASSERT_TRUE((*engine)->PredictTexture(query).ok());
  EXPECT_EQ((*engine)->GetStats().unknown_terms, 1u);
}

TEST(QueryEngineTest, PredictTextureRejectsBadDimensions) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(2, 0.01);  // Must be 3.
  EXPECT_FALSE((*engine)->PredictTexture(query).ok());
  query.gel_concentration = math::Vector(3, 2.0);  // Ratio > 1.
  EXPECT_FALSE((*engine)->PredictTexture(query).ok());
}

TEST(QueryEngineTest, NearestRheologyRanksAscendingAndChecksRange) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto matches = (*engine)->NearestRheology(0);
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ASSERT_GT(matches->size(), 1u);
  for (size_t i = 1; i < matches->size(); ++i) {
    EXPECT_LE((*matches)[i - 1].divergence, (*matches)[i].divergence);
  }
  EXPECT_FALSE((*engine)->NearestRheology(-1).ok());
  EXPECT_FALSE((*engine)->NearestRheology(2).ok());
}

TEST(QueryEngineTest, NearestRheologyHonoursMethodOverride) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  core::LinkageOptions euclid;
  euclid.method = core::LinkageMethod::kEuclidean;
  auto kl = (*engine)->NearestRheology(0);
  auto eu = (*engine)->NearestRheology(0, &euclid);
  ASSERT_TRUE(kl.ok() && eu.ok());
  // Different scoring functions produce different divergence values.
  EXPECT_NE((*kl)[0].divergence, (*eu)[0].divergence);
}

TEST(QueryEngineTest, SimilarRecipesStaysInTopicAndRanks) {
  auto corpus = TinyCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  auto result = (*engine)->SimilarRecipes(query, 10);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Feature-only query near exp(-2): lands in a topic with 3 documents.
  EXPECT_EQ(result->recipes.size(), 3u);
  for (const SimilarRecipe& r : result->recipes) {
    EXPECT_EQ(r.recipe_index < 3, result->topic == 0);
  }
  for (size_t i = 1; i < result->recipes.size(); ++i) {
    EXPECT_LE(result->recipes[i - 1].divergence,
              result->recipes[i].divergence);
  }
  // top_n truncates.
  auto top1 = (*engine)->SimilarRecipes(query, 1);
  ASSERT_TRUE(top1.ok());
  EXPECT_EQ(top1->recipes.size(), 1u);
}

/// Vocab-aligned with TinyModel (4 rows): the three dictionary words get
/// well-separated directions, the non-texture word a distinct fourth.
embed::EmbeddingTable TinyEmbeddingTable() {
  embed::EmbeddingTable table;
  table.dim = 4;
  table.vectors = {
      0.9f,  0.1f, 0.0f,  0.1f,   // katai
      0.1f,  0.9f, 0.1f,  0.0f,   // purupuru
      0.0f,  0.1f, 0.9f,  0.1f,   // fuwafuwa
      -0.5f, 0.2f, -0.5f, 0.6f,   // zzz-not-a-texture-word
  };
  table.RecomputeNorms();
  return table;
}

std::shared_ptr<const ServingSnapshot> TinyEmbedSnapshot(
    const std::string& label = "tiny-embed") {
  auto snapshot =
      ServingSnapshot::FromModel(TinyModel(), label, TinyEmbeddingTable());
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

/// TinyCorpus with per-document term bags that actually differ, so the
/// embed and lexical backends have something to disagree about.
recipe::Dataset EmbedCorpus() {
  recipe::Dataset ds = TinyCorpus();
  const std::vector<std::vector<int32_t>> bags = {
      {0}, {0, 1}, {1}, {2}, {1, 2}, {0, 2}};
  for (size_t i = 0; i < ds.documents.size(); ++i) {
    ds.documents[i].term_ids = bags[i];
  }
  return ds;
}

TEST(QueryEngineTest, EmbedAndFusedModesRequireEmbeddings) {
  auto corpus = EmbedCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.texture_terms = {"katai"};
  for (SimilarityMode mode :
       {SimilarityMode::kEmbed, SimilarityMode::kFused}) {
    auto result =
        (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0, mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << result.status().ToString();
  }
  // kl and lexical stay available on an embedding-less snapshot.
  for (SimilarityMode mode : {SimilarityMode::kKl, SimilarityMode::kLexical}) {
    EXPECT_TRUE(
        (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0, mode).ok());
  }
}

TEST(QueryEngineTest, EmbedModeNeedsAnInVocabularyTerm) {
  auto corpus = EmbedCorpus();
  auto engine =
      QueryEngine::Create(FastConfig(), TinyEmbedSnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  auto no_terms = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                            SimilarityMode::kEmbed);
  ASSERT_FALSE(no_terms.ok());
  EXPECT_EQ(no_terms.status().code(), StatusCode::kInvalidArgument);
  // Out-of-vocabulary terms resolve to nothing: same rejection.
  query.texture_terms = {"no-such-texture-word"};
  auto unknown = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                           SimilarityMode::kEmbed);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // fused degrades gracefully: no terms just means kl carries the blend.
  query.texture_terms = {};
  EXPECT_TRUE((*engine)
                  ->SimilarRecipes(query, 5, kNoDeadline, 0,
                                   SimilarityMode::kFused)
                  .ok());
}

TEST(QueryEngineTest, AllSimilarityModesRankWithinTopicAndCount) {
  auto corpus = EmbedCorpus();
  auto engine =
      QueryEngine::Create(FastConfig(), TinyEmbedSnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  query.texture_terms = {"katai", "purupuru"};
  for (SimilarityMode mode :
       {SimilarityMode::kKl, SimilarityMode::kEmbed, SimilarityMode::kLexical,
        SimilarityMode::kFused}) {
    auto result = (*engine)->SimilarRecipes(query, 10, kNoDeadline, 0, mode);
    ASSERT_TRUE(result.ok()) << SimilarityModeName(mode) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result->mode, mode);
    ASSERT_FALSE(result->recipes.empty());
    for (const SimilarRecipe& r : result->recipes) {
      EXPECT_EQ(r.recipe_index < 3, result->topic == 0)
          << SimilarityModeName(mode);
    }
    for (size_t i = 1; i < result->recipes.size(); ++i) {
      EXPECT_LE(result->recipes[i - 1].divergence,
                result->recipes[i].divergence)
          << SimilarityModeName(mode);
    }
    // Per-mode counter ticked exactly for this mode's traffic.
    EXPECT_EQ((*engine)->metrics()->TakeSnapshot().CounterValue(
                  std::string("serve.similar.mode.") +
                  SimilarityModeName(mode)),
              1u);
  }
}

TEST(QueryEngineTest, SimilarCacheIsPerModeAndFlushedOnReload) {
  auto corpus = EmbedCorpus();
  auto engine =
      QueryEngine::Create(FastConfig(), TinyEmbedSnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  auto first = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  auto again = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  // A kl answer can never satisfy a lexical probe for the same recipe.
  auto lexical = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                           SimilarityMode::kLexical);
  ASSERT_TRUE(lexical.ok());
  EXPECT_FALSE(lexical->from_cache);
  // Nor a different top_n under the same mode.
  auto wider = (*engine)->SimilarRecipes(query, 2, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(wider.ok());
  EXPECT_FALSE(wider->from_cache);
  // Reload flushes the similar cache alongside the predict cache.
  ASSERT_TRUE((*engine)->Reload(TinyEmbedSnapshot("v2")).ok());
  auto after = (*engine)->SimilarRecipes(query, 5, kNoDeadline, 0,
                                         SimilarityMode::kKl);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);
}

TEST(QueryEngineTest, MmapEmbeddingAnswersMatchHeapByteForByte) {
  // The acceptance bar for the zero-copy sections: an engine serving
  // embeddings straight out of the mapping must answer every mode exactly
  // as the heap-table engine does. Both engines are fresh (fold-in stream
  // sequence 0), so even the sampled topic assignment paths align.
  embed::EmbeddingTable table = TinyEmbeddingTable();
  std::string base = testing::TempDir() + "/qe_embed_pack";
  ASSERT_TRUE(
      core::WriteModelBinary(TinyModel(), base, FileOps::Real(), &table)
          .ok());
  auto heap_snapshot =
      ServingSnapshot::FromModel(TinyModel(), "heap", std::move(table));
  auto mmap_snapshot = ServingSnapshot::FromBinaryFile(base + ".idx");
  ASSERT_TRUE(heap_snapshot.ok() && mmap_snapshot.ok())
      << mmap_snapshot.status().ToString();
  auto heap_corpus = EmbedCorpus();
  auto mmap_corpus = EmbedCorpus();
  auto heap_engine =
      QueryEngine::Create(FastConfig(), *heap_snapshot, &heap_corpus);
  auto mmap_engine =
      QueryEngine::Create(FastConfig(), *mmap_snapshot, &mmap_corpus);
  ASSERT_TRUE(heap_engine.ok() && mmap_engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.emulsion_concentration = math::Vector(6, 0.1);
  query.texture_terms = {"katai", "purupuru"};
  for (SimilarityMode mode :
       {SimilarityMode::kKl, SimilarityMode::kEmbed, SimilarityMode::kLexical,
        SimilarityMode::kFused}) {
    auto heap_result =
        (*heap_engine)->SimilarRecipes(query, 10, kNoDeadline, 0, mode);
    auto mmap_result =
        (*mmap_engine)->SimilarRecipes(query, 10, kNoDeadline, 0, mode);
    ASSERT_TRUE(heap_result.ok() && mmap_result.ok())
        << SimilarityModeName(mode);
    EXPECT_EQ(heap_result->topic, mmap_result->topic);
    ASSERT_EQ(heap_result->recipes.size(), mmap_result->recipes.size())
        << SimilarityModeName(mode);
    for (size_t i = 0; i < heap_result->recipes.size(); ++i) {
      EXPECT_EQ(heap_result->recipes[i].recipe_index,
                mmap_result->recipes[i].recipe_index)
          << SimilarityModeName(mode) << " rank " << i;
      // Bit-identical, not merely close: both paths read the same float
      // bytes and run the same double arithmetic over them.
      EXPECT_EQ(heap_result->recipes[i].divergence,
                mmap_result->recipes[i].divergence)
          << SimilarityModeName(mode) << " rank " << i;
    }
  }
}

TEST(QueryEngineTest, KlTiesKeepRecipeIndexOrderAcrossDeltaFolds) {
  // 48 topic-0 recipes share one emulsion row, so every kl distance ties;
  // ties must come back in ascending recipe_index before and after a
  // streamed recipe (same row, index 48) joins the topic.
  recipe::Dataset corpus;
  corpus.term_vocab.Add("katai");
  for (size_t i = 0; i < 48; ++i) {
    recipe::Document doc;
    doc.recipe_index = i;
    doc.term_ids = {0};
    doc.gel_feature = math::Vector(3, 2.0);
    doc.gel_concentration = math::Vector(3, std::exp(-2.0));
    doc.emulsion_feature = math::Vector(6, 1.0);
    doc.emulsion_concentration = math::Vector(6, 0.1);
    corpus.documents.push_back(std::move(doc));
  }
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, std::exp(-2.0));
  query.emulsion_concentration = math::Vector(6, 0.2);
  auto expect_index_order = [&](size_t expected) {
    auto result = (*engine)->SimilarRecipes(query, 100);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->topic, 0);
    ASSERT_EQ(result->recipes.size(), expected);
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(result->recipes[i].recipe_index, i) << "rank " << i;
    }
  };
  expect_index_order(48);
  TextureQuery streamed = query;
  streamed.emulsion_concentration = math::Vector(6, 0.1);
  streamed.texture_terms = {"katai"};
  auto topic = (*engine)->FoldInDelta(streamed, 1);
  ASSERT_TRUE(topic.ok()) << topic.status().ToString();
  ASSERT_EQ(*topic, 0);
  expect_index_order(49);
}

/// One topic, vocabulary aligned with TinyEmbeddingTable.
std::shared_ptr<const ServingSnapshot> OneTopicEmbedSnapshot() {
  core::ModelSnapshot model;
  for (const char* term :
       {"katai", "purupuru", "fuwafuwa", "zzz-not-a-texture-word"}) {
    model.vocab.Add(term);
  }
  model.estimates.phi = {{0.4, 0.3, 0.2, 0.1}};
  model.estimates.gel_topics = {MakeGaussian(4.0, 3)};
  model.estimates.emulsion_topics = {MakeGaussian(2.0, 6)};
  model.estimates.topic_recipe_count = {12};
  auto snapshot = ServingSnapshot::FromModel(std::move(model), "one-topic",
                                             TinyEmbeddingTable());
  EXPECT_TRUE(snapshot.ok());
  return *snapshot;
}

TEST(QueryEngineTest, StreamedRecipeRanksAsTheNextCorpusRecipe) {
  // Engine A serves corpus C plus one streamed recipe x; engine B serves C
  // with x appended as its last document, so x is recipe |C| in both. Every
  // mode must give x, and every corpus recipe, the same rank and distance.
  recipe::Dataset corpus;
  for (const char* term : {"fuwafuwa", "katai", "purupuru"}) {
    corpus.term_vocab.Add(term);
  }
  const std::vector<std::vector<int32_t>> bags = {
      {1}, {1, 2}, {2}, {0}, {0, 2}, {1, 0}, {2, 2, 1}, {0}, {1}, {2, 0, 1}};
  for (size_t i = 0; i < bags.size(); ++i) {
    recipe::Document doc;
    doc.recipe_index = i;
    doc.term_ids = bags[i];
    doc.gel_feature = math::Vector(3, 4.0);
    doc.gel_concentration = math::Vector(3, std::exp(-4.0));
    doc.emulsion_feature = math::Vector(6, 1.0);
    doc.emulsion_concentration = math::Vector(6);
    for (size_t e = 0; e < 6; ++e) {
      doc.emulsion_concentration[e] = 0.01 + 0.037 * static_cast<double>(
                                                         (i * 7 + e * 5) % 11);
    }
    corpus.documents.push_back(std::move(doc));
  }
  TextureQuery streamed;
  streamed.gel_concentration = math::Vector(3, std::exp(-4.0));
  streamed.emulsion_concentration = {0.12, 0.05, 0.2, 0.01, 0.09, 0.15};
  streamed.texture_terms = {"purupuru", "katai", "purupuru"};

  recipe::Dataset with_x = corpus;
  recipe::Document x;
  x.recipe_index = corpus.documents.size();
  x.term_ids = {2, 1, 2};
  x.gel_feature = math::Vector(3, 4.0);
  x.gel_concentration = streamed.gel_concentration;
  x.emulsion_feature = math::Vector(6, 1.0);
  x.emulsion_concentration = streamed.emulsion_concentration;
  with_x.documents.push_back(std::move(x));

  auto a = QueryEngine::Create(FastConfig(), OneTopicEmbedSnapshot(), &corpus);
  auto b = QueryEngine::Create(FastConfig(), OneTopicEmbedSnapshot(), &with_x);
  ASSERT_TRUE(a.ok() && b.ok());
  auto topic = (*a)->FoldInDelta(streamed, 3);
  ASSERT_TRUE(topic.ok()) << topic.status().ToString();
  ASSERT_EQ(*topic, 0);

  std::vector<TextureQuery> queries(3);
  queries[0].gel_concentration = math::Vector(3, 0.02);
  queries[0].emulsion_concentration = {0.1, 0.05, 0.2, 0.0, 0.1, 0.1};
  queries[0].texture_terms = {"katai"};
  queries[1].emulsion_concentration = {0.3, 0.0, 0.0, 0.05, 0.0, 0.2};
  queries[1].texture_terms = {"purupuru", "fuwafuwa"};
  queries[2].gel_concentration = math::Vector(3, 0.01);
  queries[2].texture_terms = {"fuwafuwa", "katai", "purupuru"};
  for (SimilarityMode mode :
       {SimilarityMode::kKl, SimilarityMode::kEmbed, SimilarityMode::kLexical,
        SimilarityMode::kFused}) {
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(std::string(SimilarityModeName(mode)) + " query " +
                   std::to_string(q));
      auto streamed_result =
          (*a)->SimilarRecipes(queries[q], 0, kNoDeadline, 0, mode);
      auto corpus_result =
          (*b)->SimilarRecipes(queries[q], 0, kNoDeadline, 0, mode);
      ASSERT_TRUE(streamed_result.ok() && corpus_result.ok());
      ASSERT_EQ(streamed_result->recipes.size(), bags.size() + 1);
      ASSERT_EQ(corpus_result->recipes.size(), bags.size() + 1);
      for (size_t i = 0; i < corpus_result->recipes.size(); ++i) {
        const SimilarRecipe& s = streamed_result->recipes[i];
        const SimilarRecipe& c = corpus_result->recipes[i];
        EXPECT_EQ(s.recipe_index, c.recipe_index) << "rank " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(s.divergence),
                  std::bit_cast<uint64_t>(c.divergence))
            << "rank " << i << ": " << s.divergence << " vs " << c.divergence;
      }
    }
  }
}

TEST(QueryEngineTest, FoldInDeltaKeepsOneRecordPerIngestSequence) {
  auto corpus = TinyCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  auto first = (*engine)->FoldInDelta(HardQuery(), 7);
  auto again = (*engine)->FoldInDelta(HardQuery(), 7);
  ASSERT_TRUE(first.ok() && again.ok());
  EXPECT_EQ(*again, *first);  // The resident record's topic.
  EXPECT_EQ((*engine)->GetDeltaStats().delta_docs, 1u);
  // Sequence 0 marks records the model already absorbed: each fold counts.
  ASSERT_TRUE((*engine)->FoldInDelta(HardQuery(), 0).ok());
  ASSERT_TRUE((*engine)->FoldInDelta(HardQuery(), 0).ok());
  EXPECT_EQ((*engine)->GetDeltaStats().delta_docs, 3u);
}

TEST(QueryEngineTest, SimilarRecipesRequiresCorpus) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  auto result = (*engine)->SimilarRecipes(query);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryEngineTest, TopicCardSummarizesTopic) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto card = (*engine)->TopicCard(0);
  ASSERT_TRUE(card.ok()) << card.status().ToString();
  EXPECT_EQ(card->topic, 0);
  EXPECT_EQ(card->recipe_count, 3);
  ASSERT_FALSE(card->top_terms.empty());
  EXPECT_EQ(card->top_terms[0].first, "katai");
  EXPECT_GT(card->categories.hard, 0.5);
  // Gaussian mean (feature space 2.0) maps back to exp(-2) concentration.
  ASSERT_EQ(card->gel_mean_concentration.size(), 3u);
  EXPECT_NEAR(card->gel_mean_concentration[0], std::exp(-2.0), 1e-6);
  EXPECT_FALSE((*engine)->TopicCard(7).ok());
}

TEST(QueryEngineTest, ReloadSwapsModelAndFlushesCache) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  auto before = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(before.ok());

  core::ModelSnapshot changed = TinyModel();
  changed.estimates.phi[0] = {0.1, 0.1, 0.7, 0.1};  // Now fuwafuwa-heavy.
  changed.estimates.phi[1] = {0.1, 0.1, 0.2, 0.6};
  auto new_snapshot = ServingSnapshot::FromModel(std::move(changed), "v2");
  ASSERT_TRUE(new_snapshot.ok());
  ASSERT_TRUE((*engine)->Reload(*new_snapshot).ok());

  EXPECT_EQ((*engine)->snapshot()->fingerprint(),
            (*new_snapshot)->fingerprint());
  auto after = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);  // Cache was flushed.
  EXPECT_EQ(after->model_fingerprint, (*new_snapshot)->fingerprint());
  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.model_fingerprint, (*new_snapshot)->fingerprint());
  EXPECT_FALSE((*engine)->Reload(nullptr).ok());
}

TEST(QueryEngineTest, StatszMentionsEverySection) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->PredictTexture(HardQuery()).ok());
  std::string statsz = (*engine)->Statsz();
  for (const char* section :
       {"model:", "cache:", "fold_in:", "errors:", "predict_texture:",
        "nearest_rheology:", "similar_recipes:", "topic_card:"}) {
    EXPECT_NE(statsz.find(section), std::string::npos) << section;
  }
}

TEST(QueryEngineTest, AdmissionControlShedsWithUnavailable) {
  // max_in_flight 1 with a slow fold-in: flood with distinct queries from
  // several threads and require at least one clean Unavailable shed plus
  // zero crashes.
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Every query must fold in.
  config.max_in_flight = 1;
  config.fold_in_sweeps = 2000;  // Slow enough for the fold-ins to overlap.
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        TextureQuery query;
        query.texture_terms = {"katai", "purupuru", "katai", "fuwafuwa"};
        query.gel_concentration = math::Vector(3);
        query.gel_concentration[0] = 0.001 * (t * 8 + i + 1);
        auto result = (*engine)->PredictTexture(query);
        if (result.ok()) {
          ++ok;
        } else if (result.status().code() == StatusCode::kUnavailable) {
          ++shed;
        } else {
          ++other;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(shed.load(), 0);
  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.batcher.shed, static_cast<uint64_t>(shed.load()));
  EXPECT_EQ(stats.errors, static_cast<uint64_t>(shed.load()));
}

TEST(QueryEngineTest, ExpiredDeadlineIsShedBeforeFoldIn) {
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Force the fold-in path.
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());

  // A deadline already in the past must be rejected at admission — it
  // never folds in.
  Deadline expired = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(10);
  auto result = (*engine)->PredictTexture(HardQuery(), expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_GE(stats.batcher.deadline_expired, 1u);
  EXPECT_EQ(stats.batcher.jobs_processed, 0u);  // Never folded in.
}

TEST(QueryEngineTest, FoldInThatReturnsPastItsDeadlineIsNotAnswered) {
  // The deadline is checked again when the fold-in returns: a ~200 ms fold
  // under a 20 ms budget starts in time but ends late, so the caller gets
  // DeadlineExceeded and the late theta is not cached.
  QueryEngineConfig config = FastConfig();
  config.fold_in_sweeps = 1500000;
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());

  auto late = (*engine)->PredictTexture(HardQuery(), DeadlineAfterMillis(20));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.batcher.deadline_expired, 1u);
  EXPECT_EQ(stats.batcher.jobs_processed, 1u);  // It ran to the end.

  auto again = (*engine)->PredictTexture(HardQuery());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->from_cache);
  EXPECT_EQ((*engine)->GetStats().cache.misses, 2u);
}

TEST(QueryEngineTest, GenerousDeadlineAnswersNormally) {
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());

  auto with_deadline =
      (*engine)->PredictTexture(HardQuery(), DeadlineAfterMillis(60000));
  ASSERT_TRUE(with_deadline.ok()) << with_deadline.status().ToString();

  // Same query without a deadline: identical answer — the deadline only
  // decides whether an answer is given, it never perturbs the fold-in
  // arithmetic.
  auto fresh = QueryEngine::Create(FastConfig(), TinySnapshot(), nullptr);
  ASSERT_TRUE(fresh.ok());
  auto unlimited = (*fresh)->PredictTexture(HardQuery());
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(with_deadline->theta, unlimited->theta);
  EXPECT_EQ(with_deadline->topic, unlimited->topic);
  EXPECT_EQ((*engine)->GetStats().batcher.deadline_expired, 0u);
}

TEST(QueryEngineTest, SimilarRecipesHonorsDeadline) {
  auto corpus = TinyCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  Deadline expired = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(10);
  // Terms force the fold-in path (feature-only queries are placed by the
  // gel Gaussian directly and never fold in).
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.01);
  query.texture_terms = {"katai"};
  auto result = (*engine)->SimilarRecipes(query, 3, expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryEngineTest, ConcurrentFoldInsMatchSerialResults) {
  // Determinism across threads: each query's RNG stream is keyed on its
  // admission sequence, so the thetas must not depend on which caller
  // thread ran which fold-in, or on how their fold-ins overlapped.
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;
  auto engine = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine.ok());

  // One fixed query, submitted 8 times: every submission draws a distinct
  // sequence number (and therefore RNG stream), so the 8 thetas form a
  // fixed multiset {f(stream 0), ..., f(stream 7)} however they raced.
  TextureQuery query;
  query.gel_concentration = math::Vector(3, 0.005);
  query.texture_terms = {"katai", "purupuru"};
  std::vector<std::vector<double>> serial(8);
  for (int i = 0; i < 8; ++i) {
    auto p = (*engine)->PredictTexture(query);
    ASSERT_TRUE(p.ok());
    serial[static_cast<size_t>(i)] = p->theta;
  }
  auto engine2 = QueryEngine::Create(config, TinySnapshot(), nullptr);
  ASSERT_TRUE(engine2.ok());
  std::vector<std::vector<double>> concurrent(8);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      auto p = (*engine2)->PredictTexture(query);
      if (p.ok()) concurrent[static_cast<size_t>(i)] = p->theta;
    });
  }
  for (auto& t : threads) t.join();
  // Sequence numbers were raced across threads, so compare as multisets.
  auto sorted = [](std::vector<std::vector<double>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(serial), sorted(concurrent));
}

TEST(QueryEngineTest, MixedQueryTypesRaceSafely) {
  auto corpus = TinyCorpus();
  auto engine = QueryEngine::Create(FastConfig(), TinySnapshot(), &corpus);
  ASSERT_TRUE(engine.ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        bool ok = true;
        switch ((t + i) % 4) {
          case 0: {
            TextureQuery query;
            query.gel_concentration = math::Vector(3);
            query.gel_concentration[0] = 0.001 * ((i % 5) + 1);
            ok = (*engine)->PredictTexture(query).ok();
            break;
          }
          case 1:
            ok = (*engine)->NearestRheology(i % 2).ok();
            break;
          case 2: {
            TextureQuery query;
            query.gel_concentration = math::Vector(3, 0.01);
            query.emulsion_concentration = math::Vector(6, 0.1);
            ok = (*engine)->SimilarRecipes(query).ok();
            break;
          }
          case 3:
            ok = (*engine)->TopicCard(i % 2).ok();
            break;
        }
        if (!ok) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  QueryEngineStats stats = (*engine)->GetStats();
  EXPECT_EQ(stats.predict.count + stats.nearest.count + stats.similar.count +
                stats.topic_card.count,
            6u * 20u);
}

TEST(QueryEngineTest, ReloadUnderLoadFailsZeroQueries) {
  // The acceptance criterion: hot reload swaps models while queries are in
  // flight, and not a single query fails because of it.
  auto corpus = TinyCorpus();
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Force every predict through fold-in.
  config.fold_in_sweeps = 30;
  auto engine = QueryEngine::Create(config, TinySnapshot("v1"), &corpus);
  ASSERT_TRUE(engine.ok());

  auto alt_model = [] {
    core::ModelSnapshot model = TinyModel();
    model.estimates.phi[0] = {0.4, 0.2, 0.2, 0.2};
    return model;
  };
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        TextureQuery query;
        query.gel_concentration = math::Vector(3);
        query.gel_concentration[0] = 0.001 * ((i + t) % 20 + 1);
        auto result = (*engine)->PredictTexture(query);
        // Shedding is admission control, not a reload failure; anything
        // else non-OK is.
        if (result.ok()) {
          ++served;
        } else if (result.status().code() != StatusCode::kUnavailable) {
          ++failures;
        }
      }
    });
  }
  // Hammer reloads while the clients run.
  for (int r = 0; r < 20; ++r) {
    auto snapshot = ServingSnapshot::FromModel(
        r % 2 == 0 ? alt_model() : TinyModel(),
        "reload-" + std::to_string(r));
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE((*engine)->Reload(*snapshot).ok());
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ((*engine)->GetStats().reloads, 20u);
}

TEST(QueryEngineTest, ReloadFromBinaryFileUnderLoadFailsZeroQueries) {
  // Same acceptance bar as ReloadUnderLoadFailsZeroQueries, but the reload
  // path is the mmap-backed binary pair: each swap maps a new .dat and the
  // previous mapping may only be released once its last in-flight query
  // finishes. TSan (ci.sh) watches this for use-after-unmap.
  std::string base_a = testing::TempDir() + "/texrheo_qe_reload_a";
  std::string base_b = testing::TempDir() + "/texrheo_qe_reload_b";
  core::ModelSnapshot alt = TinyModel();
  alt.estimates.phi[0] = {0.4, 0.2, 0.2, 0.2};
  ASSERT_TRUE(core::WriteModelBinary(TinyModel(), base_a).ok());
  ASSERT_TRUE(core::WriteModelBinary(alt, base_b).ok());

  auto corpus = TinyCorpus();
  QueryEngineConfig config = FastConfig();
  config.cache_capacity = 0;  // Force every predict through fold-in.
  config.fold_in_sweeps = 30;
  auto engine = QueryEngine::Create(config, TinySnapshot("v1"), &corpus);
  ASSERT_TRUE(engine.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        TextureQuery query;
        query.gel_concentration = math::Vector(3);
        query.gel_concentration[0] = 0.001 * ((i + t) % 20 + 1);
        auto result = (*engine)->PredictTexture(query);
        if (result.ok()) {
          ++served;
        } else if (result.status().code() != StatusCode::kUnavailable) {
          ++failures;
        }
      }
    });
  }
  // Mapping a file is fast enough that all 20 swaps can finish before a
  // client thread is first scheduled on a loaded machine; start swapping
  // only once queries are being served, so the swaps race live queries.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (served.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  for (int r = 0; r < 20; ++r) {
    std::string idx = (r % 2 == 0 ? base_b : base_a) + ".idx";
    ASSERT_TRUE((*engine)->ReloadFromFile(idx).ok());
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ((*engine)->GetStats().reloads, 20u);
  // The published snapshot is the last binary reload, served off the map.
  auto expected = ServingSnapshot::FromBinaryFile(base_a + ".idx");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*engine)->GetStats().model_fingerprint,
            (*expected)->fingerprint());
}

TEST(QueryFromIngredientsTest, ResolvesAndAccumulates) {
  auto query = QueryFromIngredients(
      {{"gelatin", 0.01}, {"milk", 0.2}, {"gelatin", 0.005}}, {"katai"});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->gel_concentration.size(),
            static_cast<size_t>(recipe::kNumGelTypes));
  EXPECT_NEAR(query->gel_concentration[0], 0.015, 1e-12);  // Accumulated.
  EXPECT_EQ(query->texture_terms.size(), 1u);
}

TEST(QueryFromIngredientsTest, RejectsUnknownAndOutOfRange) {
  EXPECT_FALSE(QueryFromIngredients({{"unobtainium", 0.1}}).ok());
  EXPECT_FALSE(QueryFromIngredients({{"gelatin", 1.5}}).ok());
  EXPECT_FALSE(QueryFromIngredients({{"gelatin", -0.1}}).ok());
}

TEST(QueryFromIngredientsTest, IgnoresNonModelIngredients) {
  auto query = QueryFromIngredients({{"water", 0.9}, {"gelatin", 0.01}});
  ASSERT_TRUE(query.ok());
  double gel_total = 0.0;
  for (size_t i = 0; i < query->gel_concentration.size(); ++i) {
    gel_total += query->gel_concentration[i];
  }
  EXPECT_NEAR(gel_total, 0.01, 1e-12);  // Water contributed nothing.
}

}  // namespace
}  // namespace texrheo::serve
