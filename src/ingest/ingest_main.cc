// texrheo_ingest: durable streaming ingestion front-end.
//
//   texrheo_ingest --toy [--port=0] [--selftest] [--data-dir=DIR]
//
// --toy trains a small base model in-process (checkpointing enabled, so
// the first REFRESH warm-starts from the batch run's Gibbs state), then
// serves the ingest line protocol (see ingest/service.h): INGEST appends
// to the WAL and folds the recipe into the live engine, REFRESH retrains
// over old+new data and hot-swaps the packed model, INGESTZ/METRICSZ
// expose the pipeline. --selftest drives a scripted session — drifting-
// stream recipes, wire redelivery dedup, stale-vocab behaviour, a full
// refresh cycle — against the freshly started server and exits 0/1; this
// is the CI smoke mode.
//
// Knobs:
//   --data-dir=DIR        WAL + checkpoints + refreshed models (default: a
//                         per-process directory under TMPDIR)
//   --toy-scale=X         base-corpus scale (as texrheo_serve)
//   --refresh-sweeps=N    Gibbs sweeps per warm-started refresh

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "corpus/stream.h"
#include "eval/experiment.h"
#include "ingest/record.h"
#include "ingest/service.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "rheology/gel_model.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "text/texture_dictionary.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"

namespace {

using texrheo::Status;
using texrheo::StatusOr;

/// Everything the toy deployment needs alive for the process lifetime.
struct ToyDeployment {
  std::unique_ptr<texrheo::recipe::Dataset> corpus;
  std::shared_ptr<texrheo::obs::MetricsRegistry> metrics;
  std::unique_ptr<texrheo::obs::Tracer> tracer;
  std::unique_ptr<texrheo::serve::QueryEngine> engine;
  std::unique_ptr<texrheo::ingest::IngestService> service;
};

StatusOr<ToyDeployment> BuildToy(double scale, int refresh_sweeps,
                                 const std::string& data_dir) {
  texrheo::eval::ExperimentConfig config =
      texrheo::eval::DefaultExperimentConfig(scale);
  // Checkpoint the base run: REFRESH resumes Gibbs from this state instead
  // of burning in cold (the streaming-refresh contract of
  // JointTopicModel::WarmStartFromCheckpoint).
  config.model.checkpoint_dir = data_dir + "/checkpoints";
  config.model.checkpoint_interval = std::max(1, config.model.sweeps / 2);
  TEXRHEO_ASSIGN_OR_RETURN(texrheo::eval::ExperimentResult result,
                           texrheo::eval::RunJointExperiment(config));

  ToyDeployment toy;
  toy.metrics = std::make_shared<texrheo::obs::MetricsRegistry>();
  toy.tracer = std::make_unique<texrheo::obs::Tracer>(
      nullptr, texrheo::obs::Tracer::Options{0});
  toy.tracer->ExportDurationsTo(toy.metrics.get());

  texrheo::core::ModelSnapshot model = texrheo::core::MakeSnapshot(
      result.estimates, result.dataset.term_vocab);
  TEXRHEO_ASSIGN_OR_RETURN(
      std::shared_ptr<const texrheo::serve::ServingSnapshot> snapshot,
      texrheo::serve::ServingSnapshot::FromModel(std::move(model),
                                                 "ingest-toy"));
  toy.corpus = std::make_unique<texrheo::recipe::Dataset>(
      std::move(result.dataset));

  texrheo::serve::QueryEngineConfig engine_config;
  engine_config.metrics = toy.metrics;
  engine_config.tracer = toy.tracer.get();
  engine_config.feature = config.dataset.feature;
  TEXRHEO_ASSIGN_OR_RETURN(
      toy.engine, texrheo::serve::QueryEngine::Create(engine_config, snapshot,
                                                      toy.corpus.get()));

  texrheo::ingest::IngestServiceConfig service_config;
  service_config.wal_dir = data_dir + "/wal";
  service_config.tracer = toy.tracer.get();
  // The refresh trains with the *same* hyperparameters as the base run —
  // the warm start refuses a mismatched resume — over the grown corpus.
  service_config.refresh.train = config.model;
  service_config.refresh.refresh_sweeps = refresh_sweeps;
  service_config.refresh.model_dir = data_dir + "/models";
  service_config.refresh.feature = config.dataset.feature;
  TEXRHEO_ASSIGN_OR_RETURN(
      toy.service,
      texrheo::ingest::IngestService::Create(service_config, toy.engine.get(),
                                             toy.corpus.get()));
  TEXRHEO_RETURN_IF_ERROR(toy.service->Recover());
  return toy;
}

/// Scripted ingestion session: drifting-stream recipes over the wire,
/// redelivery dedup, INGESTZ, a full REFRESH cycle (fingerprint change +
/// vocabulary growth), stale-vocab fail-clean, and METRICSZ consistency.
Status RunSelftest(int port, ToyDeployment& toy) {
  using texrheo::serve::LineClient;
  texrheo::serve::LineClientOptions client_options;
  client_options.max_connect_attempts = 3;
  client_options.io_timeout_millis = 120000;  // REFRESH retrains in-line.
  TEXRHEO_ASSIGN_OR_RETURN(
      std::unique_ptr<LineClient> client,
      LineClient::Connect("127.0.0.1", port, client_options));
  auto expect_ok = [&](const std::string& command) -> StatusOr<std::string> {
    TEXRHEO_ASSIGN_OR_RETURN(std::string reply, client->RoundTrip(command));
    if (reply.rfind("OK", 0) != 0) {
      return Status::Internal("selftest: '" + command + "' -> " + reply);
    }
    TEXRHEO_LOG(Info) << command << " -> " << reply;
    return reply;
  };
  TEXRHEO_RETURN_IF_ERROR(expect_ok("PING").status());

  // Drifting-stream arrivals: aggressive drift intervals so template
  // unlocks and vocabulary churn happen within the first few positions.
  texrheo::corpus::RecipeStreamConfig stream_config;
  stream_config.template_unlock_interval = 4;
  stream_config.season_period = 8;
  stream_config.vocab_churn_interval = 3;
  stream_config.churn_term_prob = 1.0;
  texrheo::corpus::RecipeStream stream(
      stream_config, &texrheo::rheology::GelPhysicsModel::Calibrated(),
      &texrheo::text::TextureDictionary::Embedded());
  const texrheo::recipe::IngredientDatabase& db =
      texrheo::recipe::IngredientDatabase::Embedded();
  std::vector<std::string> sent_commands;
  std::string first_reply;
  for (int i = 0; i < 10; ++i) {
    texrheo::corpus::StreamRecipe item = stream.Next();
    TEXRHEO_ASSIGN_OR_RETURN(texrheo::ingest::IngestRecord record,
                             texrheo::ingest::RecordFromStream(item, db));
    const std::string command = texrheo::ingest::IngestCommandFor(record);
    TEXRHEO_ASSIGN_OR_RETURN(std::string reply, expect_ok(command));
    if (reply.find(" dedup=0 ") == std::string::npos) {
      return Status::Internal("selftest: fresh recipe claimed dedup: " +
                              reply);
    }
    sent_commands.push_back(command);
    if (first_reply.empty()) first_reply = reply;
  }

  // Wire redelivery of the first recipe: byte-identical acknowledgement of
  // the *original* sequence, no second WAL append.
  TEXRHEO_ASSIGN_OR_RETURN(std::string redelivered,
                           expect_ok(sent_commands.front()));
  if (redelivered.find(" dedup=1") == std::string::npos ||
      redelivered.rfind(first_reply.substr(0, first_reply.find(" dedup=")),
                        0) != 0) {
    return Status::Internal("selftest: redelivery not deduped to " +
                            first_reply + ", got " + redelivered);
  }

  // A recipe naming a term the served vocabulary does not know: accepted
  // durably, and queries on that term fail clean (FailedPrecondition)
  // until a refresh brings the term into the vocabulary.
  const std::string churn_term = "mochimochi-n";
  TEXRHEO_RETURN_IF_ERROR(
      expect_ok("INGEST gelatin=0.015,milk=0.22 terms=" + churn_term)
          .status());
  texrheo::serve::TextureQuery stale_query;
  stale_query.texture_terms = {churn_term};
  auto stale = toy.engine->PredictTexture(stale_query);
  if (stale.ok() ||
      stale.status().code() != texrheo::StatusCode::kFailedPrecondition) {
    return Status::Internal(
        "selftest: stale-vocab query should FailedPrecondition, got " +
        (stale.ok() ? std::string("OK") : stale.status().ToString()));
  }
  if (toy.engine->GetDeltaStats().stale_vocab_queries < 1) {
    return Status::Internal("selftest: stale_vocab counter did not move");
  }

  // Folded recipes are queryable before any refresh: the engine's delta
  // carries them.
  if (toy.engine->GetDeltaStats().delta_docs < 10) {
    return Status::Internal("selftest: ingested recipes missing from the "
                            "engine delta");
  }

  TEXRHEO_ASSIGN_OR_RETURN(std::string ingestz_reply,
                           client->RoundTrip("INGESTZ"));
  std::string ingestz = ingestz_reply + "\n";
  {
    TEXRHEO_ASSIGN_OR_RETURN(std::string rest, client->ReadUntilDot());
    ingestz += rest;
  }
  for (const char* section :
       {"pipeline:", "wal:", "delta:", "refresh:", "engine:"}) {
    if (ingestz.find(section) == std::string::npos) {
      return Status::Internal(std::string("selftest: ingestz missing '") +
                              section + "' section:\n" + ingestz);
    }
  }
  TEXRHEO_LOG(Info) << "ingestz:\n" << ingestz;

  // Full refresh cycle over the wire: retrain on base + streamed recipes,
  // pack, hot-swap, compact. The served fingerprint must change and the
  // pending term must resolve into the vocabulary.
  const uint32_t fingerprint_before = toy.engine->snapshot()->fingerprint();
  TEXRHEO_ASSIGN_OR_RETURN(std::string refreshed, expect_ok("REFRESH"));
  if (refreshed.find("fingerprint=") == std::string::npos) {
    return Status::Internal("selftest: REFRESH reply malformed: " +
                            refreshed);
  }
  if (toy.engine->snapshot()->fingerprint() == fingerprint_before) {
    return Status::Internal("selftest: fingerprint unchanged after REFRESH");
  }
  auto fresh = toy.engine->PredictTexture(stale_query);
  if (!fresh.ok()) {
    return Status::Internal(
        "selftest: churned term still unqueryable after REFRESH: " +
        fresh.status().ToString());
  }
  // Absorbed recipes stay visible to SIMILAR across the swap (the ingest
  // layer re-folds its delta against the new snapshot).
  if (toy.service->absorbed_records() < 11 ||
      toy.engine->GetDeltaStats().delta_docs <
          toy.service->absorbed_records()) {
    return Status::Internal("selftest: delta lost across refresh");
  }

  // Ingestion continues against the refreshed model.
  TEXRHEO_ASSIGN_OR_RETURN(std::string post_reply,
                           expect_ok("INGEST kanten=0.008 terms=katai"));
  if (post_reply.find(" dedup=0 ") == std::string::npos) {
    return Status::Internal("selftest: post-refresh ingest deduped: " +
                            post_reply);
  }

  // METRICSZ: one page carries the whole stack; the ingest chain must be
  // monotone (registration order makes this invariant, not luck).
  TEXRHEO_ASSIGN_OR_RETURN(std::string metricsz,
                           client->RoundTrip("METRICSZ"));
  TEXRHEO_ASSIGN_OR_RETURN(texrheo::JsonValue metrics,
                           texrheo::JsonValue::Parse(metricsz));
  const texrheo::JsonValue* counters = metrics.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Status::Internal("selftest: metricsz missing counters:\n" +
                            metricsz);
  }
  auto counter = [&](const char* name) -> double {
    const texrheo::JsonValue* v = counters->Find(name);
    return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
  };
  if (counter("ingest.records.accepted") < counter("ingest.records.deduped") ||
      counter("ingest.records.deduped") < counter("ingest.records.folded") ||
      counter("ingest.records.folded") < 1.0 ||
      counter("ingest.refresh.attempts") < counter("ingest.refresh.success") ||
      counter("ingest.refresh.success") < 1.0 ||
      counter("serve.queries.stale_vocab") < 1.0) {
    return Status::Internal("selftest: metricsz ingest counters "
                            "inconsistent:\n" + metricsz);
  }
  TEXRHEO_RETURN_IF_ERROR(expect_ok("QUIT").status());
  return Status::OK();
}

int Main(int argc, char** argv) {
  texrheo::FlagParser flags;
  Status parse = flags.Parse(argc, argv);
  if (!parse.ok()) {
    std::fprintf(stderr, "%s\n", parse.ToString().c_str());
    return 2;
  }
  const bool toy = flags.GetBool("toy", false);
  const bool selftest = flags.GetBool("selftest", false);
  auto port_or = flags.GetInt("port", selftest ? 0 : 7334);
  auto scale_or = flags.GetDouble("toy-scale", 0.06);
  auto refresh_sweeps_or = flags.GetInt("refresh-sweeps", 5);
  if (!port_or.ok() || !scale_or.ok() || !refresh_sweeps_or.ok()) {
    std::fprintf(stderr, "bad --port / --toy-scale / --refresh-sweeps\n");
    return 2;
  }
  if (!toy) {
    // The streaming service needs a base model *and* the corpus it was
    // trained on (the refresh trains over both); only the in-process toy
    // pipeline provides that today.
    std::fprintf(stderr,
                 "usage: texrheo_ingest --toy [--port=N] [--selftest] "
                 "[--data-dir=DIR]\n");
    return 2;
  }
  std::string data_dir = flags.GetString("data-dir", "");
  if (data_dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    data_dir = std::string(tmp != nullptr ? tmp : "/tmp") +
               "/texrheo_ingest." + std::to_string(static_cast<long>(getpid()));
  }

  StatusOr<ToyDeployment> toy_or =
      BuildToy(*scale_or, static_cast<int>(*refresh_sweeps_or), data_dir);
  if (!toy_or.ok()) {
    std::fprintf(stderr, "toy deployment failed: %s\n",
                 toy_or.status().ToString().c_str());
    return 1;
  }
  ToyDeployment deployment = std::move(toy_or).value();

  texrheo::ingest::IngestCommandHandler handler(deployment.service.get(),
                                                deployment.engine.get());
  texrheo::serve::ServerOptions server_options;
  server_options.port = static_cast<int>(*port_or);
  // REFRESH retrains inline; never let the idle reaper or a request
  // deadline kill the cycle mid-swap.
  server_options.idle_timeout_millis = 300000;
  texrheo::serve::LineProtocolServer server(
      &handler, deployment.engine->metrics(), server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("texrheo_ingest listening on 127.0.0.1:%d (model %08x, wal %s)\n",
              server.port(), deployment.engine->snapshot()->fingerprint(),
              data_dir.c_str());
  std::fflush(stdout);

  if (selftest) {
    Status result = RunSelftest(server.port(), deployment);
    server.Stop();
    if (!result.ok()) {
      std::fprintf(stderr, "SELFTEST FAILED: %s\n", result.ToString().c_str());
      return 1;
    }
    std::printf("selftest passed\n");
    return 0;
  }

  for (;;) pause();
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
