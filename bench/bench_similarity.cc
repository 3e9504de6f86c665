// Ablation harness for the SIMILAR ranking backends (kl / embed / lexical
// / fused): every document of a synthetic corpus is replayed as a query
// against one serving engine per run, and each mode's top-k neighbours are
// scored for precision against the corpus generator's ground-truth dish
// templates (two recipes are "relevant" to each other when they were
// stamped from the same template).
//
// Writes bench/out/similarity.json. ci.sh --bench gates on it: the fused
// reciprocal-rank blend must be at least as precise as every single
// backend — otherwise fusion is subtracting information and the default
// mode weights need retuning.
//
// flags: --scale <f>   (default 0.05)
//        --top-k <n>   (default 10)
//        --out <path>  (default bench/out/similarity.json)

#include <sys/stat.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "embed/sgns_trainer.h"
#include "eval/experiment.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"

namespace texrheo {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  (void)flags.Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf(
        "bench_similarity: precision@k of each SIMILAR backend against "
        "ground-truth dish templates.\nflags: --scale <f> (default 0.05), "
        "--top-k <n> (default 10), --out <path>\n");
    return 0;
  }
  const double scale = flags.GetDouble("scale", 0.05).value_or(0.05);
  const size_t top_k =
      static_cast<size_t>(flags.GetInt("top-k", 10).value_or(10));
  const std::string out_path =
      flags.GetString("out", "bench/out/similarity.json");
  SetLogLevel(LogLevel::kWarning);

  eval::ExperimentConfig config = eval::DefaultExperimentConfig(scale);
  auto result_or = eval::RunJointExperiment(config);
  if (!result_or.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result_or.status().ToString().c_str());
    return 1;
  }
  const eval::ExperimentResult& result = result_or.value();
  const recipe::Dataset& dataset = result.dataset;

  // Train the embedding table over the corpus term bags — the same
  // training path `texrheo_serve --toy` uses, but with a real epoch budget.
  std::vector<std::vector<int32_t>> sentences;
  sentences.reserve(dataset.documents.size());
  for (const recipe::Document& doc : dataset.documents) {
    sentences.push_back(doc.term_ids);
  }
  embed::SgnsConfig sgns;
  sgns.dim = 16;
  sgns.epochs = 12;
  auto embeddings_or =
      embed::TrainSgns(sentences, dataset.term_vocab.size(), sgns);
  if (!embeddings_or.ok()) {
    std::fprintf(stderr, "sgns training failed: %s\n",
                 embeddings_or.status().ToString().c_str());
    return 1;
  }

  core::ModelSnapshot model =
      core::MakeSnapshot(result.estimates, dataset.term_vocab);
  auto snapshot_or = serve::ServingSnapshot::FromModel(
      std::move(model), "bench-similarity", *std::move(embeddings_or));
  if (!snapshot_or.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n",
                 snapshot_or.status().ToString().c_str());
    return 1;
  }
  serve::QueryEngineConfig engine_config;
  // Weight overrides for tuning sweeps; defaults are the engine's own.
  engine_config.fusion_kl_weight =
      flags.GetDouble("w-kl", engine_config.fusion_kl_weight)
          .value_or(engine_config.fusion_kl_weight);
  engine_config.fusion_embed_weight =
      flags.GetDouble("w-embed", engine_config.fusion_embed_weight)
          .value_or(engine_config.fusion_embed_weight);
  engine_config.fusion_lexical_weight =
      flags.GetDouble("w-lexical", engine_config.fusion_lexical_weight)
          .value_or(engine_config.fusion_lexical_weight);
  engine_config.fusion_rrf_k =
      flags.GetDouble("rrf-k", engine_config.fusion_rrf_k)
          .value_or(engine_config.fusion_rrf_k);
  auto engine_or = serve::QueryEngine::Create(
      engine_config, *std::move(snapshot_or), &dataset);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "engine failed: %s\n",
                 engine_or.status().ToString().c_str());
    return 1;
  }
  serve::QueryEngine& engine = **engine_or;

  // Ground truth: the generator stamps each recipe with its dish template.
  std::vector<std::string> doc_template(dataset.documents.size());
  for (size_t d = 0; d < dataset.documents.size(); ++d) {
    const recipe::Recipe& r =
        result.recipes[dataset.documents[d].recipe_index];
    auto it = r.metadata.find(corpus::kMetaTemplate);
    doc_template[d] = it != r.metadata.end() ? it->second : "";
  }

  const serve::SimilarityMode kModes[] = {
      serve::SimilarityMode::kKl, serve::SimilarityMode::kEmbed,
      serve::SimilarityMode::kLexical, serve::SimilarityMode::kFused};
  std::map<std::string, double> precision_sum;
  std::map<std::string, size_t> query_count;

  for (size_t d = 0; d < dataset.documents.size(); ++d) {
    const recipe::Document& doc = dataset.documents[d];
    serve::TextureQuery query;
    query.gel_concentration = doc.gel_concentration;
    query.emulsion_concentration = doc.emulsion_concentration;
    for (int32_t id : doc.term_ids) {
      query.texture_terms.push_back(
          std::string(dataset.term_vocab.WordOf(id)));
    }
    if (query.texture_terms.empty()) continue;  // embed mode needs terms
    for (serve::SimilarityMode mode : kModes) {
      // +1 so dropping the query document itself still leaves top_k rows.
      auto similar_or = engine.SimilarRecipes(query, top_k + 1,
                                              serve::kNoDeadline, 0, mode);
      if (!similar_or.ok()) {
        std::fprintf(stderr, "SIMILAR mode=%s failed: %s\n",
                     serve::SimilarityModeName(mode),
                     similar_or.status().ToString().c_str());
        return 1;
      }
      size_t hits = 0;
      size_t judged = 0;
      for (const serve::SimilarRecipe& rec : similar_or->recipes) {
        if (rec.recipe_index == d) continue;  // Self-match: not informative.
        if (judged == top_k) break;
        ++judged;
        if (doc_template[rec.recipe_index] == doc_template[d]) ++hits;
      }
      if (judged == 0) continue;  // Singleton topic: nothing to rank.
      const std::string name = serve::SimilarityModeName(mode);
      precision_sum[name] +=
          static_cast<double>(hits) / static_cast<double>(judged);
      query_count[name] += 1;
    }
  }

  JsonValue root = JsonValue::MakeObject();
  root.AsObject()["scale"] = JsonValue::Number(scale);
  root.AsObject()["top_k"] =
      JsonValue::Number(static_cast<double>(top_k));
  root.AsObject()["documents"] =
      JsonValue::Number(static_cast<double>(dataset.documents.size()));
  JsonValue modes = JsonValue::MakeObject();
  std::printf("=== SIMILAR precision@%zu vs ground-truth templates ===\n",
              top_k);
  for (serve::SimilarityMode mode : kModes) {
    const std::string name = serve::SimilarityModeName(mode);
    const size_t n = query_count[name];
    const double precision = n == 0 ? 0.0 : precision_sum[name] /
                                                static_cast<double>(n);
    JsonValue entry = JsonValue::MakeObject();
    entry.AsObject()["precision_at_10"] = JsonValue::Number(precision);
    entry.AsObject()["queries"] =
        JsonValue::Number(static_cast<double>(n));
    modes.AsObject()[name] = std::move(entry);
    std::printf("%-8s precision@%zu = %.4f over %zu queries\n",
                name.c_str(), top_k, precision, n);
  }
  root.AsObject()["modes"] = std::move(modes);

  // ci.sh pre-creates bench/out; cover direct runs from the repo root too.
  const size_t slash = out_path.rfind('/');
  if (slash != std::string::npos) {
    (void)::mkdir(out_path.substr(0, slash).c_str(), 0755);
  }
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = root.Serialize();
  std::fwrite(json.data(), 1, json.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace texrheo

int main(int argc, char** argv) { return texrheo::Run(argc, argv); }
