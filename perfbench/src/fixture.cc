#include "fixture.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "core/model_binary.h"
#include "corpus/generator.h"
#include "embed/sgns_trainer.h"
#include "recipe/ingredient.h"
#include "rheology/gel_model.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "text/texture_dictionary.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"
#include "util/rng.h"

namespace perfbench {

using texrheo::Status;
using texrheo::StatusOr;
namespace core = texrheo::core;
namespace recipe = texrheo::recipe;
namespace serve = texrheo::serve;

texrheo::eval::ExperimentConfig PaperConfig(const BenchOptions& options) {
  // Smoke mode keeps the pipeline but shrinks the crawl ~16x. The corpus
  // and the served model are the system's data, fixed across runs; the
  // workload seed drives the request streams and the timed chains.
  return texrheo::eval::DefaultExperimentConfig(options.smoke ? 0.06 : 1.0);
}

StatusOr<recipe::Dataset> BuildTrainingDataset(
    const texrheo::eval::ExperimentConfig& config, SetupTimes* times) {
  Clock::time_point t0 = Clock::now();
  texrheo::corpus::CorpusGenerator generator(
      config.corpus, &texrheo::rheology::GelPhysicsModel::Calibrated(),
      &texrheo::text::TextureDictionary::Embedded());
  std::vector<recipe::Recipe> recipes = generator.Generate();
  times->generate_s = SecondsSince(t0);

  t0 = Clock::now();
  std::vector<std::vector<std::string>> sentences;
  sentences.reserve(recipes.size());
  for (const recipe::Recipe& r : recipes) {
    sentences.push_back(texrheo::text::Tokenizer::Tokenize(r.description));
  }
  TEXRHEO_ASSIGN_OR_RETURN(
      texrheo::text::Word2Vec w2v,
      texrheo::text::Word2Vec::Train(sentences, config.word2vec));
  texrheo::text::GelRelatednessFilter filter(
      &w2v, texrheo::corpus::CorpusGenerator::ToppingIngredientNames(),
      config.filter);
  TEXRHEO_ASSIGN_OR_RETURN(
      recipe::Dataset dataset,
      recipe::BuildDataset(recipes, recipe::IngredientDatabase::Embedded(),
                           texrheo::text::TextureDictionary::Embedded(),
                           &filter, config.dataset));
  times->dataset_s = SecondsSince(t0);
  if (dataset.documents.empty()) {
    return Status::FailedPrecondition("dataset funnel produced no documents");
  }
  return dataset;
}

namespace {

std::string FormatRatio(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string IngredientSpec(const recipe::Document& doc) {
  std::string out;
  auto add = [&out](const char* name, double v) {
    if (!(v > 0.0)) return;
    if (!out.empty()) out += ',';
    out += std::string(name) + "=" + FormatRatio(v);
  };
  for (int g = 0; g < recipe::kNumGelTypes; ++g) {
    add(recipe::GelTypeName(static_cast<recipe::GelType>(g)),
        doc.gel_concentration[static_cast<size_t>(g)]);
  }
  for (int e = 0; e < recipe::kNumEmulsionTypes; ++e) {
    add(recipe::EmulsionTypeName(static_cast<recipe::EmulsionType>(e)),
        doc.emulsion_concentration[static_cast<size_t>(e)]);
  }
  return out.empty() ? "-" : out;
}

/// The engine's PREDICT cache key for a query, term ids resolved against
/// `vocab` (out-of-vocabulary terms dropped, as the engine does).
std::string KeyOf(const recipe::Document& doc,
                  const texrheo::text::Vocabulary& vocab,
                  const std::vector<std::string>& terms) {
  std::vector<int32_t> ids;
  for (const std::string& t : terms) {
    const int32_t id = vocab.IdOf(t);
    if (id != texrheo::text::Vocabulary::kUnknownId) ids.push_back(id);
  }
  return serve::CanonicalQueryKey(doc.gel_concentration,
                                  doc.emulsion_concentration, ids, 1e-4);
}

/// KeyOf for a parsed protocol query (absent concentrations are zeros).
std::string KeyOf(const serve::TextureQuery& query,
                  const texrheo::text::Vocabulary& vocab) {
  recipe::Document doc;
  doc.gel_concentration = query.gel_concentration;
  doc.emulsion_concentration = query.emulsion_concentration;
  if (doc.gel_concentration.empty()) {
    doc.gel_concentration = texrheo::math::Vector(recipe::kNumGelTypes);
  }
  if (doc.emulsion_concentration.empty()) {
    doc.emulsion_concentration =
        texrheo::math::Vector(recipe::kNumEmulsionTypes);
  }
  return KeyOf(doc, vocab, query.texture_terms);
}

}  // namespace

StatusOr<std::vector<HeldOut>> BuildHeldOut(
    const texrheo::eval::ExperimentConfig& config, uint64_t heldout_seed,
    const recipe::Dataset& training) {
  texrheo::corpus::CorpusGenConfig gen = config.corpus;
  gen.seed = heldout_seed;
  texrheo::corpus::CorpusGenerator generator(
      gen, &texrheo::rheology::GelPhysicsModel::Calibrated(),
      &texrheo::text::TextureDictionary::Embedded());
  std::vector<recipe::Recipe> recipes = generator.Generate();
  TEXRHEO_ASSIGN_OR_RETURN(
      recipe::Dataset pool,
      recipe::BuildDataset(recipes, recipe::IngredientDatabase::Embedded(),
                           texrheo::text::TextureDictionary::Embedded(),
                           nullptr, config.dataset));

  std::unordered_set<std::string> training_keys;
  for (const recipe::Document& doc : training.documents) {
    std::vector<std::string> terms;
    for (int32_t id : doc.term_ids) {
      terms.push_back(training.term_vocab.WordOf(id));
    }
    training_keys.insert(KeyOf(doc, training.term_vocab, terms));
  }

  std::vector<HeldOut> out;
  std::unordered_set<std::string> seen;
  for (const recipe::Document& doc : pool.documents) {
    // Only terms the served model knows: an unknown term would be dropped
    // by the engine anyway, and after an INGEST it would turn into a
    // pending-vocabulary error for every later reader.
    std::vector<std::string> terms;
    for (int32_t id : doc.term_ids) {
      const std::string& word = pool.term_vocab.WordOf(id);
      if (training.term_vocab.IdOf(word) !=
              texrheo::text::Vocabulary::kUnknownId &&
          std::find(terms.begin(), terms.end(), word) == terms.end()) {
        terms.push_back(word);
      }
    }
    if (terms.empty()) continue;
    HeldOut h;
    h.ingredients = IngredientSpec(doc);
    for (size_t i = 0; i < terms.size(); ++i) {
      h.terms += (i > 0 ? "," : "") + terms[i];
    }
    // The generator can emit the same recipe under two seeds; such a
    // recipe is not held out, so it is dropped, as are repeats. The key is
    // taken at the line's precision, as the engine will see it.
    recipe::Document rounded = doc;
    for (texrheo::math::Vector* v :
         {&rounded.gel_concentration, &rounded.emulsion_concentration}) {
      for (size_t i = 0; i < v->size(); ++i) {
        (*v)[i] = std::strtod(FormatRatio((*v)[i]).c_str(), nullptr);
      }
    }
    const std::string key = KeyOf(rounded, training.term_vocab, terms);
    if (training_keys.count(key) != 0 || !seen.insert(key).second) continue;
    std::vector<std::string> tokens =
        serve::SplitProtocolTokens("PREDICT " + h.Args());
    TEXRHEO_ASSIGN_OR_RETURN(h.query,
                             serve::ParseQueryCommand(tokens, nullptr));
    out.push_back(std::move(h));
  }
  // What the workloads rely on, checked on the queries as the server
  // parses them: no query the engine could have seen in training, and no
  // two queries sharing a cache key.
  std::unordered_set<std::string> keys;
  for (const HeldOut& h : out) {
    const std::string key = KeyOf(h.query, training.term_vocab);
    if (training_keys.count(key) != 0 || !keys.insert(key).second) {
      return Status::Internal("held-out query " + h.Args() +
                              " is not disjoint from training");
    }
  }
  if (out.size() < 16) {
    return Status::FailedPrecondition("held-out set too small");
  }
  texrheo::Rng rng(heldout_seed ^ 0x5eedf00dULL);
  rng.Shuffle(out);
  return out;
}

StatusOr<PackedModel> TrainAndPack(
    const texrheo::eval::ExperimentConfig& config,
    const recipe::Dataset& dataset, const std::string& base_path,
    SetupTimes* times) {
  PackedModel out;
  TEXRHEO_ASSIGN_OR_RETURN(core::JointTopicModel model,
                           core::JointTopicModel::Create(config.model,
                                                         &dataset));
  TEXRHEO_RETURN_IF_ERROR(model.Train());
  out.model = core::MakeSnapshot(model.Estimate(), dataset.term_vocab);

  // SGNS ingredient embeddings over the corpus term bags, sized as the
  // serving binary's startup path sizes them.
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<int32_t>> sentences;
  sentences.reserve(dataset.documents.size());
  for (const recipe::Document& doc : dataset.documents) {
    sentences.push_back(doc.term_ids);
  }
  texrheo::embed::SgnsConfig sgns;
  sgns.dim = 16;
  sgns.epochs = 3;
  TEXRHEO_ASSIGN_OR_RETURN(
      out.embeddings,
      texrheo::embed::TrainSgns(sentences, dataset.term_vocab.size(), sgns));
  times->sgns_s = SecondsSince(t0);

  TEXRHEO_RETURN_IF_ERROR(core::WriteModelBinary(
      out.model, base_path, texrheo::FileOps::Real(), &out.embeddings));
  out.idx_path = base_path + ".idx";
  TEXRHEO_ASSIGN_OR_RETURN(out.snapshot,
                           serve::ServingSnapshot::FromFile(out.idx_path));
  return out;
}

void Fleet::Stop() {
  if (ingest_server) ingest_server->Stop();
  if (router_server) router_server->Stop();
  if (router) router->Stop();
  for (Replica& r : replicas) {
    if (r.server) r.server->Stop();
  }
}

StatusOr<std::unique_ptr<Fleet>> StartFleet(
    const FleetOptions& options,
    std::shared_ptr<const serve::ServingSnapshot> snapshot,
    const recipe::Dataset* corpus) {
  auto fleet = std::make_unique<Fleet>();
  fleet->options = options;
  serve::RouterOptions router_options;
  for (int i = 0; i < options.replicas; ++i) {
    Fleet::Replica replica;
    TEXRHEO_ASSIGN_OR_RETURN(
        replica.engine,
        serve::QueryEngine::Create(serve::QueryEngineConfig{}, snapshot,
                                   corpus));
    replica.server = std::make_unique<serve::LineProtocolServer>(
        replica.engine.get(), serve::ServerOptions{});
    TEXRHEO_RETURN_IF_ERROR(replica.server->Start());
    router_options.replicas.push_back({"127.0.0.1", replica.server->port()});
    fleet->replicas.push_back(std::move(replica));
  }
  if (options.router) {
    TEXRHEO_ASSIGN_OR_RETURN(fleet->router,
                             serve::ReplicaRouter::Create(router_options));
    TEXRHEO_RETURN_IF_ERROR(fleet->router->Start());
    fleet->router_server = std::make_unique<serve::LineProtocolServer>(
        fleet->router.get(), fleet->router->metrics(), serve::ServerOptions{});
    TEXRHEO_RETURN_IF_ERROR(fleet->router_server->Start());
  }
  if (options.ingest) {
    std::error_code ec;
    std::filesystem::remove_all(options.wal_dir, ec);
    texrheo::ingest::IngestServiceConfig config;
    config.wal_dir = options.wal_dir;
    serve::QueryEngine* engine = fleet->replicas[0].engine.get();
    TEXRHEO_ASSIGN_OR_RETURN(
        fleet->ingest,
        texrheo::ingest::IngestService::Create(config, engine, corpus));
    TEXRHEO_RETURN_IF_ERROR(fleet->ingest->Recover());
    fleet->ingest_handler =
        std::make_unique<texrheo::ingest::IngestCommandHandler>(
            fleet->ingest.get(), engine);
    fleet->ingest_server_metrics =
        std::make_shared<texrheo::obs::MetricsRegistry>();
    fleet->ingest_server = std::make_unique<serve::LineProtocolServer>(
        fleet->ingest_handler.get(), fleet->ingest_server_metrics.get(),
        serve::ServerOptions{});
    TEXRHEO_RETURN_IF_ERROR(fleet->ingest_server->Start());
  }
  return fleet;
}

StatusOr<std::unique_ptr<serve::LineClient>> Connect(int port) {
  serve::LineClientOptions options;
  options.max_connect_attempts = 3;
  options.io_timeout_millis = 10000;
  return serve::LineClient::Connect("127.0.0.1", port, options);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux.
}

std::string FileSystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlay";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

}  // namespace perfbench
