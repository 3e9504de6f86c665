// texrheo_serve: line-protocol TCP front-end over the texture query engine.
//
//   texrheo_serve --model=model.txt [--port=7333]
//   texrheo_serve --toy [--port=0] [--selftest]
//
// Robustness knobs (defaults in serve/server.h):
//   --idle-timeout-ms=N       reap connections with no complete line for N ms
//   --request-deadline-ms=N   per-request budget (0 = unlimited)
//   --max-connections=N       accept-time shedding beyond N concurrent conns
//   --max-line-bytes=N        oversized request line => one ERR, then close
//   --drain-deadline-ms=N     graceful-drain budget on shutdown
//
// Observability:
//   --metrics-dir=DIR         periodically write DIR/metricsz.json (the
//                             METRICSZ snapshot) via atomic rename
//   --metrics-interval-ms=N   write cadence (default 10000)
//
// --toy trains a small synthetic-corpus model in-process (no files needed);
// --selftest additionally runs a scripted client session against the
// freshly started server and exits 0/1 — this is the CI smoke mode.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/model_binary.h"
#include "core/serialization.h"
#include "embed/sgns_trainer.h"
#include "eval/experiment.h"
#include "obs/exporter.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "serve/query_engine.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"

namespace {

using texrheo::Status;
using texrheo::StatusOr;

struct LoadedModel {
  std::shared_ptr<const texrheo::serve::ServingSnapshot> snapshot;
  /// Non-null only for --toy (enables SIMILAR); kept alive by the caller.
  std::unique_ptr<texrheo::recipe::Dataset> corpus;
  /// Model file usable as a RELOAD target in selftest (toy mode only).
  std::string model_file;
  /// Packed binary twin (`.idx`) of model_file, also selftest-reloaded.
  std::string binary_idx;
};

StatusOr<LoadedModel> LoadToy(double scale, const std::string& dump_dir) {
  texrheo::eval::ExperimentConfig config =
      texrheo::eval::DefaultExperimentConfig(scale);
  TEXRHEO_ASSIGN_OR_RETURN(texrheo::eval::ExperimentResult result,
                           texrheo::eval::RunJointExperiment(config));
  LoadedModel loaded;
  texrheo::core::ModelSnapshot model = texrheo::core::MakeSnapshot(
      result.estimates, result.dataset.term_vocab);
  // Train SGNS ingredient embeddings over the corpus term bags. The toy
  // corpus was indexed against term_vocab — the snapshot's own vocabulary —
  // so sentences are the documents' term-id sequences verbatim.
  std::vector<std::vector<int32_t>> sentences;
  sentences.reserve(result.dataset.documents.size());
  for (const texrheo::recipe::Document& doc : result.dataset.documents) {
    sentences.push_back(doc.term_ids);
  }
  texrheo::embed::SgnsConfig sgns;
  sgns.dim = 16;
  sgns.epochs = 3;  // Startup-budget epochs; the bench trains for real.
  TEXRHEO_ASSIGN_OR_RETURN(
      texrheo::embed::EmbeddingTable embeddings,
      texrheo::embed::TrainSgns(sentences, result.dataset.term_vocab.size(),
                                sgns));
  if (!dump_dir.empty()) {
    // Per-process filename: a replica fleet started from the README's
    // multi-instance recipe must not race on one shared dump path (the
    // atomic-rename tmp files collide and the loser dies at startup).
    const std::string base = dump_dir + "/texrheo_serve_toy_model." +
                             std::to_string(static_cast<long>(getpid()));
    loaded.model_file = base + ".txt";
    TEXRHEO_RETURN_IF_ERROR(
        texrheo::core::SaveModel(loaded.model_file, model));
    // Pack the binary twin so selftest exercises the mmap reload path too —
    // with the embedding sections, so embed/fused survive a binary reload.
    // The text twin stays v2 (no embeddings): reloading it is the selftest's
    // legacy-model case, where embed-mode queries must fail cleanly.
    TEXRHEO_RETURN_IF_ERROR(texrheo::core::WriteModelBinary(
        model, base, texrheo::FileOps::Real(), &embeddings));
    loaded.binary_idx = base + ".idx";
  }
  TEXRHEO_ASSIGN_OR_RETURN(
      loaded.snapshot,
      texrheo::serve::ServingSnapshot::FromModel(
          std::move(model), "toy-experiment", std::move(embeddings)));
  loaded.corpus = std::make_unique<texrheo::recipe::Dataset>(
      std::move(result.dataset));
  return loaded;
}

StatusOr<LoadedModel> LoadFromFile(const std::string& path) {
  LoadedModel loaded;
  // FromFile dispatches on the extension: .idx/.dat mmap the packed binary
  // pair, anything else parses the v2 text format.
  TEXRHEO_ASSIGN_OR_RETURN(loaded.snapshot,
                           texrheo::serve::ServingSnapshot::FromFile(path));
  loaded.model_file = path;
  return loaded;
}

/// Scripted client session: every query type, a cache-hit repeat, a hot
/// reload, and a stats read. Returns non-OK on any unexpected response.
Status RunSelftest(int port, const std::string& reload_file,
                   const std::string& reload_binary) {
  using texrheo::serve::LineClient;
  // The selftest client exercises the hardened path: bounded round trips
  // and connect retry with backoff (harmless against a live server).
  texrheo::serve::LineClientOptions client_options;
  client_options.max_connect_attempts = 3;
  client_options.io_timeout_millis = 30000;
  TEXRHEO_ASSIGN_OR_RETURN(
      std::unique_ptr<LineClient> client,
      LineClient::Connect("127.0.0.1", port, client_options));
  auto expect_ok = [&](const std::string& command) -> Status {
    TEXRHEO_ASSIGN_OR_RETURN(std::string reply, client->RoundTrip(command));
    if (reply.rfind("OK", 0) != 0) {
      return Status::Internal("selftest: '" + command + "' -> " + reply);
    }
    TEXRHEO_LOG(Info) << command << " -> " << reply;
    return Status::OK();
  };
  TEXRHEO_RETURN_IF_ERROR(expect_ok("PING"));
  TEXRHEO_RETURN_IF_ERROR(
      expect_ok("PREDICT gelatin=0.012,milk=0.25 terms=jiggly,smooth"));
  // Identical query again: must be answered from the cache.
  TEXRHEO_ASSIGN_OR_RETURN(
      std::string cached,
      client->RoundTrip("PREDICT gelatin=0.012,milk=0.25 terms=jiggly,smooth"));
  if (cached.find("cached=1") == std::string::npos) {
    return Status::Internal("selftest: repeat PREDICT not cached: " + cached);
  }
  TEXRHEO_RETURN_IF_ERROR(expect_ok("NEAREST 0"));
  TEXRHEO_RETURN_IF_ERROR(expect_ok("NEAREST 0 method=mahalanobis"));
  TEXRHEO_RETURN_IF_ERROR(expect_ok("SIMILAR gelatin=0.02 n=3"));
  // Every similarity backend answers against the embedding-bearing toy
  // snapshot (embed/fused need terms to build a query vector).
  for (const char* mode : {"kl", "embed", "lexical", "fused"}) {
    TEXRHEO_RETURN_IF_ERROR(expect_ok(
        std::string("SIMILAR gelatin=0.02 terms=katai,purupuru n=3 mode=") +
        mode));
  }
  TEXRHEO_RETURN_IF_ERROR(expect_ok("TOPIC 0"));
  // A malformed command must produce a clean ERR, not a dropped connection.
  TEXRHEO_ASSIGN_OR_RETURN(std::string err, client->RoundTrip("NEAREST 9999"));
  if (err.rfind("ERR", 0) != 0) {
    return Status::Internal("selftest: expected ERR, got " + err);
  }
  if (!reload_file.empty()) {
    TEXRHEO_RETURN_IF_ERROR(expect_ok("RELOAD " + reload_file));
    // The text model is a legacy v2 pack with no embedding sections:
    // embed-backed modes must fail with a clean ERR, not serve garbage.
    TEXRHEO_ASSIGN_OR_RETURN(
        std::string legacy,
        client->RoundTrip("SIMILAR gelatin=0.02 terms=katai mode=embed"));
    if (legacy.rfind("ERR", 0) != 0) {
      return Status::Internal(
          "selftest: embed mode on a legacy model should ERR, got " + legacy);
    }
    TEXRHEO_RETURN_IF_ERROR(expect_ok("SIMILAR gelatin=0.02 mode=kl n=3"));
  }
  if (!reload_binary.empty()) {
    // Hot reload from the packed binary pair (mmap path), then prove the
    // swapped-in mapping actually serves — including its embedding
    // sections, which the text model just dropped.
    TEXRHEO_RETURN_IF_ERROR(expect_ok("RELOAD " + reload_binary));
    TEXRHEO_RETURN_IF_ERROR(expect_ok("TOPIC 0"));
    TEXRHEO_RETURN_IF_ERROR(expect_ok(
        "SIMILAR gelatin=0.02 terms=katai,purupuru n=3 mode=fused"));
  }
  TEXRHEO_RETURN_IF_ERROR(client->SendLine("STATSZ"));
  TEXRHEO_ASSIGN_OR_RETURN(std::string statsz, client->ReadUntilDot());
  if (statsz.find("cache:") == std::string::npos ||
      statsz.find("fold_in:") == std::string::npos ||
      statsz.find("queries:") == std::string::npos ||
      statsz.find("server:") == std::string::npos ||
      statsz.find("reload_breaker:") == std::string::npos) {
    return Status::Internal("selftest: statsz missing sections:\n" + statsz);
  }
  TEXRHEO_LOG(Info) << "statsz:\n" << statsz;
  // INGESTZ surfaces the streamed-delta state the ingest tier feeds (docs
  // folded since the last reload, pending vocabulary); on a pure serve
  // front the page must still render, with its sections intact.
  TEXRHEO_RETURN_IF_ERROR(client->SendLine("INGESTZ"));
  TEXRHEO_ASSIGN_OR_RETURN(std::string ingestz, client->ReadUntilDot());
  if (ingestz.find("model: fingerprint=") == std::string::npos ||
      ingestz.find("delta: docs=") == std::string::npos ||
      ingestz.find("vocab: pending_terms=") == std::string::npos) {
    return Status::Internal("selftest: ingestz missing sections:\n" + ingestz);
  }
  // METRICSZ is STATSZ's machine-readable twin: one bare JSON line that
  // must parse, carry the documented schema, and be monotone-consistent.
  TEXRHEO_ASSIGN_OR_RETURN(std::string metricsz,
                           client->RoundTrip("METRICSZ"));
  TEXRHEO_ASSIGN_OR_RETURN(texrheo::JsonValue metrics,
                           texrheo::JsonValue::Parse(metricsz));
  const texrheo::JsonValue* version = metrics.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->AsNumber() != 2.0) {
    return Status::Internal("selftest: metricsz missing schema_version 2:\n" +
                            metricsz);
  }
  for (const char* section : {"counters", "gauges", "histograms", "model"}) {
    const texrheo::JsonValue* value = metrics.Find(section);
    if (value == nullptr || !value->is_object()) {
      return Status::Internal(std::string("selftest: metricsz missing '") +
                              section + "' object:\n" + metricsz);
    }
  }
  const texrheo::JsonValue& counters = *metrics.Find("counters");
  auto counter = [&counters](const char* name) -> double {
    const texrheo::JsonValue* v = counters.Find(name);
    return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
  };
  if (counter("serve.queries.accepted") < counter("serve.queries.completed") ||
      counter("serve.server.requests_received") <
          counter("serve.server.requests_completed") ||
      counter("serve.queries.accepted") < 1.0) {
    return Status::Internal("selftest: metricsz counters inconsistent:\n" +
                            metricsz);
  }
  TEXRHEO_RETURN_IF_ERROR(expect_ok("QUIT"));
  return Status::OK();
}

/// Fleet smoke for the router front tier: three in-process replicas
/// serving the toy snapshot behind a ReplicaRouter. Proves the failover
/// story end to end — queries answer through the full fleet, keep
/// answering after one replica is killed (retry + breaker ejection, probe
/// stepped manually), and the ejection is visible in the router's
/// METRICSZ fleet object.
Status RunRouterSmoke(
    std::shared_ptr<const texrheo::serve::ServingSnapshot> snapshot,
    const texrheo::recipe::Dataset* corpus) {
  using texrheo::serve::LineProtocolServer;
  using texrheo::serve::QueryEngine;
  struct Replica {
    std::unique_ptr<QueryEngine> engine;
    std::unique_ptr<LineProtocolServer> server;
  };
  std::vector<Replica> fleet(3);
  texrheo::serve::RouterOptions router_options;
  for (Replica& replica : fleet) {
    TEXRHEO_ASSIGN_OR_RETURN(
        replica.engine,
        QueryEngine::Create(texrheo::serve::QueryEngineConfig{}, snapshot,
                            corpus));
    replica.server = std::make_unique<LineProtocolServer>(
        replica.engine.get(), texrheo::serve::ServerOptions{});
    TEXRHEO_RETURN_IF_ERROR(replica.server->Start());
    router_options.replicas.push_back({"127.0.0.1", replica.server->port()});
  }
  router_options.probe_interval_millis = 0;  // Smoke steps probes manually.
  router_options.breaker.failure_threshold = 1;
  TEXRHEO_ASSIGN_OR_RETURN(
      std::unique_ptr<texrheo::serve::ReplicaRouter> router,
      texrheo::serve::ReplicaRouter::Create(router_options));
  TEXRHEO_RETURN_IF_ERROR(router->Start());
  bool quit = false;
  auto route_ok = [&](const std::string& command) -> Status {
    std::string reply =
        router->Handle(command, &quit, texrheo::serve::kNoDeadline);
    if (reply.rfind("OK", 0) != 0) {
      return Status::Internal("router smoke: '" + command + "' -> " + reply);
    }
    TEXRHEO_LOG(Info) << "router: " << command << " -> " << reply;
    return Status::OK();
  };
  TEXRHEO_RETURN_IF_ERROR(route_ok("PREDICT gelatin=0.012 terms=jiggly"));
  // A fused SIMILAR routed through the front tier: proves mode= survives
  // the router's parse/routing-key path and the replica-side fusion serves
  // end to end behind the fleet.
  TEXRHEO_RETURN_IF_ERROR(
      route_ok("SIMILAR gelatin=0.02 terms=katai,purupuru n=3 mode=fused"));
  // Kill one replica: the next probe pass ejects it (threshold 1) and
  // queries keep answering through the survivors.
  fleet[2].server->Stop();
  router->ProbeAllOnce();
  TEXRHEO_RETURN_IF_ERROR(route_ok("PREDICT gelatin=0.02 terms=smooth"));
  TEXRHEO_RETURN_IF_ERROR(route_ok("NEAREST 0"));
  std::string metricsz =
      router->Handle("METRICSZ", &quit, texrheo::serve::kNoDeadline);
  TEXRHEO_ASSIGN_OR_RETURN(texrheo::JsonValue metrics,
                           texrheo::JsonValue::Parse(metricsz));
  const texrheo::JsonValue* fleet_obj = metrics.Find("fleet");
  if (fleet_obj == nullptr || fleet_obj->Find("healthy") == nullptr ||
      fleet_obj->Find("healthy")->AsNumber() != 2.0) {
    return Status::Internal(
        "router smoke: METRICSZ fleet does not show the ejection:\n" +
        metricsz);
  }
  TEXRHEO_LOG(Info) << "router: one replica ejected, fleet.healthy=2";
  router->Stop();
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
  const std::string model_path = flags.GetString("model", "");
  auto port_or = flags.GetInt("port", selftest ? 0 : 7333);
  auto scale_or = flags.GetDouble("toy-scale", 0.06);
  if (!port_or.ok() || !scale_or.ok()) {
    std::fprintf(stderr, "bad --port / --toy-scale\n");
    return 2;
  }
  if (toy == !model_path.empty()) {
    std::fprintf(stderr,
                 "usage: texrheo_serve (--toy | --model=FILE) [--port=N] "
                 "[--selftest]\n");
    return 2;
  }

  const char* tmp = std::getenv("TMPDIR");
  StatusOr<LoadedModel> loaded_or =
      toy ? LoadToy(*scale_or, tmp != nullptr ? tmp : "/tmp")
          : LoadFromFile(model_path);
  if (!loaded_or.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 loaded_or.status().ToString().c_str());
    return 1;
  }
  LoadedModel loaded = std::move(loaded_or).value();

  // Production tracing: steady clock, durations mirrored into the shared
  // registry as trace.<name>_us histograms (ring disabled — METRICSZ only
  // needs the aggregates, and serving must not grow per-span state).
  auto metrics = std::make_shared<texrheo::obs::MetricsRegistry>();
  texrheo::obs::Tracer tracer(nullptr, texrheo::obs::Tracer::Options{0});
  tracer.ExportDurationsTo(metrics.get());

  texrheo::serve::QueryEngineConfig config;
  config.metrics = metrics;
  config.tracer = &tracer;
  auto engine_or = texrheo::serve::QueryEngine::Create(
      config, loaded.snapshot, loaded.corpus.get());
  if (!engine_or.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 engine_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<texrheo::serve::QueryEngine> engine =
      std::move(engine_or).value();

  texrheo::serve::ServerOptions server_options;
  server_options.port = static_cast<int>(*port_or);
  auto idle_or = flags.GetInt("idle-timeout-ms",
                              server_options.idle_timeout_millis);
  auto deadline_or = flags.GetInt("request-deadline-ms",
                                  server_options.request_deadline_millis);
  auto max_conns_or = flags.GetInt(
      "max-connections", static_cast<int64_t>(server_options.max_connections));
  auto max_line_or = flags.GetInt(
      "max-line-bytes", static_cast<int64_t>(server_options.max_line_bytes));
  auto drain_or = flags.GetInt("drain-deadline-ms",
                               server_options.drain_deadline_millis);
  if (!idle_or.ok() || !deadline_or.ok() || !max_conns_or.ok() ||
      !max_line_or.ok() || !drain_or.ok()) {
    std::fprintf(stderr, "bad robustness flag (expected integer)\n");
    return 2;
  }
  server_options.idle_timeout_millis = static_cast<int>(*idle_or);
  server_options.request_deadline_millis = static_cast<int>(*deadline_or);
  server_options.max_connections = static_cast<size_t>(
      std::max<int64_t>(1, *max_conns_or));
  server_options.max_line_bytes = static_cast<size_t>(
      std::max<int64_t>(64, *max_line_or));
  server_options.drain_deadline_millis = static_cast<int>(*drain_or);
  texrheo::serve::LineProtocolServer server(engine.get(), server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server: %s\n", started.ToString().c_str());
    return 1;
  }

  const std::string metrics_dir = flags.GetString("metrics-dir", "");
  auto metrics_interval_or = flags.GetInt("metrics-interval-ms", 10000);
  if (!metrics_interval_or.ok()) {
    std::fprintf(stderr, "bad --metrics-interval-ms (expected integer)\n");
    return 2;
  }
  std::unique_ptr<texrheo::obs::PeriodicMetricsWriter> metrics_writer;
  if (!metrics_dir.empty()) {
    texrheo::obs::PeriodicMetricsWriter::Options writer_options;
    writer_options.path = metrics_dir + "/metricsz.json";
    writer_options.interval_millis = static_cast<int>(*metrics_interval_or);
    texrheo::serve::QueryEngine* raw_engine = engine.get();
    metrics_writer = std::make_unique<texrheo::obs::PeriodicMetricsWriter>(
        [raw_engine] { return raw_engine->MetricszJson() + "\n"; },
        writer_options);
    Status write_started = metrics_writer->Start();
    if (!write_started.ok()) {
      std::fprintf(stderr, "metrics writer: %s\n",
                   write_started.ToString().c_str());
      return 1;
    }
  }
  std::printf("texrheo_serve listening on 127.0.0.1:%d (model %08x, %d "
              "topics)\n",
              server.port(), loaded.snapshot->fingerprint(),
              loaded.snapshot->num_topics());
  std::fflush(stdout);

  if (selftest) {
    Status result =
        RunSelftest(server.port(), loaded.model_file, loaded.binary_idx);
    if (result.ok()) {
      result = RunRouterSmoke(loaded.snapshot, loaded.corpus.get());
    }
    server.Stop();
    if (!result.ok()) {
      std::fprintf(stderr, "SELFTEST FAILED: %s\n",
                   result.ToString().c_str());
      return 1;
    }
    std::printf("selftest passed\n");
    return 0;
  }

  // Foreground serve: block until the accept thread exits (ctrl-C kills us).
  for (;;) pause();
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
