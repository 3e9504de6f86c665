// The traced run's layer probe: each layer's public entry point, called
// in-process with a span around every call, on the same model and
// held-out queries the workloads use.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/model_binary.h"
#include "ingest/record.h"
#include "ingest/wal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/features.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using texrheo::Status;
using texrheo::StatusOr;
namespace core = texrheo::core;
namespace serve = texrheo::serve;

namespace {

/// Median of the durations of every span called `name`, in `unit_ns`.
double MedianOf(const SpanLog& spans, const std::string& name,
                double unit_ns) {
  return Median(spans.DurationsNs(name)) / unit_ns;
}

texrheo::math::Vector OrZeros(const texrheo::math::Vector& v, int dim) {
  return v.empty() ? texrheo::math::Vector(static_cast<size_t>(dim)) : v;
}

Status ProbeCore(Context& ctx, SpanLog& spans, MetricMap& m) {
  const int sweeps = ctx.options.smoke ? 20 : 100;
  for (int threads : {1, 4}) {
    core::JointTopicModelConfig config = ctx.config.model;
    config.num_threads = threads;
    TEXRHEO_ASSIGN_OR_RETURN(core::JointTopicModel model,
                             core::JointTopicModel::Create(config, &ctx.dataset));
    const char* name = threads == 1 ? "core.sweep" : "core.sweep_4t";
    for (int i = 0; i < sweeps; ++i) {
      ScopedSpan span(spans, name);
      TEXRHEO_RETURN_IF_ERROR(model.RunSweeps(1));
    }
    if (threads != 1) continue;
    for (int i = 0; i < 20; ++i) {
      ScopedSpan span(spans, "core.loglik");
      volatile double ll = model.LogJointLikelihood();
      (void)ll;
    }
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(spans, "core.estimate");
      core::TopicEstimates estimates = model.Estimate();
      (void)estimates;
    }
  }
  m["core.sweep_us"] = {MedianOf(spans, "core.sweep", 1e3), "us"};
  m["core.sweep_4t_us"] = {MedianOf(spans, "core.sweep_4t", 1e3), "us"};
  m["core.loglik_us"] = {MedianOf(spans, "core.loglik", 1e3), "us"};
  m["core.estimate_ms"] = {MedianOf(spans, "core.estimate", 1e6), "ms"};

  // The trainer's own sweep -> shard_sample / gaussian_update spans.
  texrheo::obs::MetricsRegistry registry;
  texrheo::obs::Tracer tracer(nullptr,
                              texrheo::obs::Tracer::Options{16 * 1024});
  TEXRHEO_ASSIGN_OR_RETURN(
      core::JointTopicModel traced,
      core::JointTopicModel::Create(ctx.config.model, &ctx.dataset));
  traced.SetObservability(&registry, &tracer);
  TEXRHEO_RETURN_IF_ERROR(traced.RunSweeps(sweeps));
  std::vector<double> sample_us;
  std::vector<double> gaussian_us;
  for (const texrheo::obs::SpanRecord& rec : tracer.Drain()) {
    if (rec.name == "shard_sample") sample_us.push_back(rec.duration_micros);
    if (rec.name == "gaussian_update") {
      gaussian_us.push_back(rec.duration_micros);
    }
  }
  m["core.sample_us"] = {Median(sample_us), "us", sample_us.size()};
  m["core.gaussian_us"] = {Median(gaussian_us), "us", gaussian_us.size()};

  const std::string base = ctx.options.work_dir + "/probe-pack";
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(spans, "core.pack");
    TEXRHEO_RETURN_IF_ERROR(core::WriteModelBinary(
        ctx.packed->model, base, texrheo::FileOps::Real(),
        &ctx.packed->embeddings));
  }
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(spans, "serve.snapshot_load");
    TEXRHEO_ASSIGN_OR_RETURN(auto snapshot,
                             serve::ServingSnapshot::FromFile(base + ".idx"));
    (void)snapshot;
  }
  m["core.pack_ms"] = {MedianOf(spans, "core.pack", 1e6), "ms"};
  m["serve.snapshot_load_ms"] = {MedianOf(spans, "serve.snapshot_load", 1e6),
                                 "ms"};
  return Status::OK();
}

Status ProbeServe(Context& ctx, SpanLog& spans, MetricMap& m) {
  const auto& snapshot = ctx.packed->snapshot;
  TEXRHEO_ASSIGN_OR_RETURN(
      auto engine, serve::QueryEngine::Create(serve::QueryEngineConfig{},
                                              snapshot, &ctx.dataset));
  serve::LineProtocolServer server(engine.get(), serve::ServerOptions{});
  TEXRHEO_RETURN_IF_ERROR(server.Start());
  TEXRHEO_ASSIGN_OR_RETURN(auto client, Connect(server.port()));

  const serve::QueryEngineConfig defaults;
  const size_t q = std::min<size_t>(ctx.heldout.size() / 2,
                                    ctx.options.smoke ? 40 : 400);
  std::vector<double> batch_wait_ns;
  for (size_t i = 0; i < q; ++i) {
    const HeldOut& h = ctx.heldout[i];
    const uint64_t request = i + 1;
    ScopedSpan root(spans, "probe.request", 0, request);
    const std::vector<std::string> tokens =
        serve::SplitProtocolTokens("PREDICT " + h.Args());
    StatusOr<serve::TextureQuery> parsed = Status::Internal("unset");
    {
      ScopedSpan span(spans, "serve.parse", root.id(), request);
      parsed = serve::ParseQueryCommand(tokens, nullptr);
    }
    TEXRHEO_RETURN_IF_ERROR(parsed.status());
    const texrheo::math::Vector gel =
        OrZeros(parsed->gel_concentration, texrheo::recipe::kNumGelTypes);
    const texrheo::math::Vector emulsion = OrZeros(
        parsed->emulsion_concentration, texrheo::recipe::kNumEmulsionTypes);
    std::vector<int32_t> ids;
    for (const std::string& t : parsed->texture_terms) {
      const int32_t id = snapshot->WordId(t);
      if (id >= 0) ids.push_back(id);
    }
    {
      ScopedSpan span(spans, "serve.key", root.id(), request);
      std::string key =
          serve::CanonicalQueryKey(gel, emulsion, ids, defaults.cache_quantum);
      (void)key;
    }
    texrheo::Rng rng = texrheo::Rng::ForStream(ctx.options.seed, i);
    const int64_t f0 = spans.NowNs();
    {
      ScopedSpan span(spans, "serve.fold_in", root.id(), request);
      TEXRHEO_ASSIGN_OR_RETURN(
          std::vector<double> theta,
          snapshot->FoldInTheta(
              ids, texrheo::recipe::ToFeature(gel, defaults.feature),
              defaults.fold_in_sweeps, defaults.alpha, rng));
      (void)theta;
    }
    const int64_t f1 = spans.NowNs();
    {
      ScopedSpan span(spans, "serve.predict_miss", root.id(), request);
      TEXRHEO_RETURN_IF_ERROR(engine->PredictTexture(*parsed).status());
    }
    const int64_t f2 = spans.NowNs();
    batch_wait_ns.push_back(static_cast<double>((f2 - f1) - (f1 - f0)));
    {
      ScopedSpan span(spans, "serve.cache_hit", root.id(), request);
      TEXRHEO_RETURN_IF_ERROR(engine->PredictTexture(*parsed).status());
    }
    for (size_t mode = 0; mode < serve::kNumSimilarityModes; ++mode) {
      const auto sm = static_cast<serve::SimilarityMode>(mode);
      const std::string name =
          std::string("serve.rank.") + serve::SimilarityModeName(sm);
      ScopedSpan span(spans, name.c_str(), root.id(), request);
      TEXRHEO_RETURN_IF_ERROR(
          engine->SimilarRecipes(*parsed, 0, serve::kNoDeadline, 0, sm)
              .status());
    }
  }
  for (size_t i = q; i < 2 * q; ++i) {
    const std::string line = "PREDICT " + ctx.heldout[i].Args();
    bool quit = false;
    std::string reply;
    {
      ScopedSpan span(spans, "serve.handle");
      reply = server.HandleCommand(line, &quit);
    }
    if (reply.rfind("OK ", 0) != 0) return Status::Internal(reply);
    {
      ScopedSpan span(spans, "serve.handle_cached");
      reply = server.HandleCommand(line, &quit);
    }
    {
      ScopedSpan span(spans, "serve.round_trip_cached");
      TEXRHEO_ASSIGN_OR_RETURN(reply, client->RoundTrip(line));
    }
    if (reply.rfind("OK ", 0) != 0) return Status::Internal(reply);
  }
  client->Close();
  server.Stop();

  m["serve.parse_ns"] = {MedianOf(spans, "serve.parse", 1.0), "ns"};
  m["serve.key_ns"] = {MedianOf(spans, "serve.key", 1.0), "ns"};
  m["serve.fold_in_us"] = {MedianOf(spans, "serve.fold_in", 1e3), "us"};
  m["serve.batch_wait_us"] = {Median(batch_wait_ns) / 1e3, "us",
                              batch_wait_ns.size()};
  m["serve.cache_hit_us"] = {MedianOf(spans, "serve.cache_hit", 1e3), "us"};
  for (const char* mode : {"kl", "embed", "lexical", "fused"}) {
    m[std::string("serve.rank_us.") + mode] = {
        MedianOf(spans, std::string("serve.rank.") + mode, 1e3), "us"};
  }
  m["serve.handle_us"] = {MedianOf(spans, "serve.handle", 1e3), "us"};
  m["serve.wire_us"] = {MedianOf(spans, "serve.round_trip_cached", 1e3) -
                            MedianOf(spans, "serve.handle_cached", 1e3),
                        "us"};
  return Status::OK();
}

Status ProbeRouterAndIngest(Context& ctx, Fleet& fleet, SpanLog& spans,
                            MetricMap& m) {
  TEXRHEO_ASSIGN_OR_RETURN(auto via, Connect(fleet.router_server->port()));
  std::vector<std::unique_ptr<serve::LineClient>> direct;
  for (const Fleet::Replica& replica : fleet.replicas) {
    TEXRHEO_ASSIGN_OR_RETURN(auto c, Connect(replica.server->port()));
    direct.push_back(std::move(c));
  }
  const size_t q = std::min<size_t>(ctx.heldout.size() / 2,
                                    ctx.options.smoke ? 40 : 400);
  for (size_t i = 0; i < q; ++i) {
    const std::string line = "PREDICT " + ctx.heldout[i].Args();
    TEXRHEO_ASSIGN_OR_RETURN(std::string warm, via->RoundTrip(line));
    if (warm.rfind("OK ", 0) != 0) return Status::Internal(warm);
    const std::vector<int> candidates = fleet.router->CandidatesFor(line);
    if (candidates.empty()) return Status::Internal("no route: " + line);
    {
      ScopedSpan span(spans, "router.via");
      TEXRHEO_RETURN_IF_ERROR(via->RoundTrip(line).status());
    }
    {
      ScopedSpan span(spans, "router.direct");
      TEXRHEO_RETURN_IF_ERROR(
          direct[static_cast<size_t>(candidates[0])]->RoundTrip(line).status());
    }
  }
  m["router.hop_us"] = {MedianOf(spans, "router.via", 1e3) -
                            MedianOf(spans, "router.direct", 1e3),
                        "us"};

  // WAL appends and whole Ingest calls, each in a directory of its own.
  const std::string wal_dir = ctx.options.work_dir + "/probe-wal";
  const std::string ingest_dir = ctx.options.work_dir + "/probe-ingest";
  const size_t writes = ctx.options.smoke ? 20 : 200;
  {
    texrheo::ingest::WalOptions wal_options;
    wal_options.dir = wal_dir;
    TEXRHEO_ASSIGN_OR_RETURN(auto wal,
                             texrheo::ingest::WriteAheadLog::Open(wal_options));
    for (size_t i = 0; i < writes; ++i) {
      const std::string payload =
          ctx.heldout[i % ctx.heldout.size()].Args() + "#" + std::to_string(i);
      ScopedSpan span(spans, "ingest.wal_append");
      TEXRHEO_RETURN_IF_ERROR(wal->Append(payload).status());
    }
  }
  {
    TEXRHEO_ASSIGN_OR_RETURN(
        auto engine, serve::QueryEngine::Create(serve::QueryEngineConfig{},
                                                ctx.packed->snapshot,
                                                &ctx.dataset));
    texrheo::ingest::IngestServiceConfig config;
    config.wal_dir = ingest_dir;
    TEXRHEO_ASSIGN_OR_RETURN(
        auto service, texrheo::ingest::IngestService::Create(
                          config, engine.get(), &ctx.dataset));
    TEXRHEO_RETURN_IF_ERROR(service->Recover());
    for (size_t i = 0; i < std::min(writes, ctx.heldout.size()); ++i) {
      const texrheo::ingest::IngestRecord record =
          texrheo::ingest::RecordFromQuery(ctx.heldout[i].query);
      ScopedSpan span(spans, "ingest.ingest");
      TEXRHEO_RETURN_IF_ERROR(service->Ingest(record).status());
    }
  }
  m["ingest.wal_append_us"] = {MedianOf(spans, "ingest.wal_append", 1e3),
                               "us"};
  m["ingest.ingest_us"] = {MedianOf(spans, "ingest.ingest", 1e3), "us"};
  return Status::OK();
}

// --- routed read/write mix -------------------------------------------------

/// Read kinds and their share of the reads; writes are kWriteShare of all
/// requests.
enum ReadKind { kPredict, kSimKl, kSimEmbed, kSimLexical, kSimFused, kNearest,
                kTopic, kNumReadKinds };
constexpr double kReadWeights[kNumReadKinds] = {45, 10, 5, 5, 5, 10, 10};
constexpr double kWriteShare = 0.10;
const char* const kSimilarModes[] = {"kl", "embed", "lexical", "fused"};
/// Open-loop arrival rate, reads and writes, requests/s.
constexpr double kMixRate = 10000.0;
/// Every kFirstDeliveryEvery-th write delivers a new held-out record until
/// the run's distinct-write count was sent; the rest are redeliveries. The
/// streamed delta therefore ends every run at the same size.
constexpr size_t kFirstDeliveryEvery = 8;

/// The mix's load generator: nproc - 1 reader connections to the router
/// front and one writer connection to the ingest front, each with a thread
/// of its own. Every request is checked and counted in `r`.
class MixDriver {
 public:
  MixDriver(Context& ctx, Fleet& fleet, size_t distinct_writes,
            SpanLog& spans, RunResult& r)
      : ctx_(ctx), fleet_(fleet), distinct_writes_(distinct_writes),
        spans_(spans), r_(r),
        rng_(ctx.options.seed ^ 0x3141592653ULL) {
    // Zipf(1.0) over the held-out order for reads.
    double total = 0.0;
    zipf_cdf_.reserve(ctx.heldout.size());
    for (size_t i = 0; i < ctx.heldout.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
    double w = 0.0;
    for (double x : kReadWeights) w += x;
    double acc = 0.0;
    for (int k = 0; k < kNumReadKinds; ++k) {
      acc += kReadWeights[k] / w;
      kind_cdf_[k] = acc;
    }
  }

  Status Connect(int readers) {
    for (int i = 0; i < readers; ++i) {
      TEXRHEO_ASSIGN_OR_RETURN(auto c,
                               perfbench::Connect(fleet_.router_server->port()));
      read_clients_.push_back(std::move(c));
    }
    TEXRHEO_ASSIGN_OR_RETURN(write_client_,
                             perfbench::Connect(fleet_.ingest_server->port()));
    return Status::OK();
  }

  /// Open loop at kMixRate for `seconds`: Poisson arrivals. Reads share the
  /// reader connections (a request due while all are busy waits); writes
  /// go in order over the ingest connection. Appends how late each request
  /// was sent to `lateness_us`.
  void RunPhase(double seconds, std::vector<double>& lateness_us) {
    struct Op {
      double at_us;
      std::string line;
      size_t write_item;
    };
    std::vector<Op> reads;
    std::vector<Op> writes;
    for (double t = 0.0;;) {
      t += -std::log(rng_.NextDoubleNonZero()) / kMixRate * 1e6;
      if (t >= seconds * 1e6) break;
      if (rng_.NextBernoulli(kWriteShare)) {
        // The first write of a run is always a first delivery, so a
        // redelivery always has an earlier record to repeat.
        const bool first = writes_sent_++ % kFirstDeliveryEvery == 0 &&
                           distinct_scheduled_ < distinct_writes_;
        const size_t item = first ? distinct_scheduled_++
                                  : rng_.NextUint(distinct_scheduled_);
        const HeldOut& h = ctx_.heldout[ctx_.heldout.size() - 1 - item];
        writes.push_back({t, "INGEST " + h.Args(), item});
        continue;
      }
      reads.push_back({t, MakeRead(), 0});
    }

    std::vector<double> late(reads.size() + writes.size());
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    auto issue = [&](serve::LineClient& client, const Op& op, double& lateness,
                     const char* name, uint64_t request) -> std::string {
      const Clock::time_point due =
          start + std::chrono::nanoseconds(static_cast<int64_t>(op.at_us * 1e3));
      // Sleep to just before the due time, then spin the last stretch.
      std::this_thread::sleep_until(due - std::chrono::microseconds(60));
      Clock::time_point sent = Clock::now();
      while (sent < due) {
        std::this_thread::yield();
        sent = Clock::now();
      }
      lateness = MicrosBetween(due, sent);
      ScopedSpan span(spans_, name, 0, request);
      StatusOr<std::string> reply = client.RoundTrip(op.line);
      if (!reply.ok()) return "ERR transport " + reply.status().ToString();
      return std::move(*reply);
    };
    std::atomic<size_t> next_read{0};
    std::vector<std::string> read_replies(reads.size());
    std::vector<std::thread> threads;
    for (size_t w = 0; w < read_clients_.size(); ++w) {
      threads.emplace_back([&, w] {
        for (;;) {
          const size_t k = next_read.fetch_add(1);
          if (k >= reads.size()) return;
          read_replies[k] = issue(*read_clients_[w], reads[k], late[k],
                                  "mix.read", request_base_ + k);
        }
      });
    }
    std::vector<std::string> write_replies(writes.size());
    threads.emplace_back([&] {
      for (size_t k = 0; k < writes.size(); ++k) {
        write_replies[k] =
            issue(*write_client_, writes[k], late[reads.size() + k],
                  "mix.ingest", request_base_ + reads.size() + k);
      }
    });
    for (std::thread& t : threads) t.join();
    request_base_ += reads.size() + writes.size();
    lateness_us.insert(lateness_us.end(), late.begin(), late.end());

    r_.attempted += reads.size() + writes.size();
    for (size_t k = 0; k < reads.size(); ++k) {
      if (read_replies[k].rfind("OK ", 0) != 0) {
        Fail("read: " + reads[k].line + " -> " + read_replies[k]);
      }
    }
    // INGEST acks: a first delivery gets the next dense sequence, a
    // redelivery re-acknowledges the original one.
    for (size_t k = 0; k < writes.size(); ++k) {
      unsigned long long seq = 0;
      int dedup = -1;
      bool ok = std::sscanf(write_replies[k].c_str(), "OK seq=%llu dedup=%d",
                            &seq, &dedup) == 2;
      if (ok) {
        ++acks_;
        auto it = acked_.find(writes[k].write_item);
        if (it == acked_.end()) {
          ok = dedup == 0 && seq == acked_.size() + 1;
          acked_.emplace(writes[k].write_item, seq);
        } else {
          ok = dedup == 1 && seq == it->second;
          ++dedup_acks_;
        }
      }
      if (!ok) Fail("ingest: " + writes[k].line + " -> " + write_replies[k]);
    }
  }

  size_t distinct_acked() const { return acked_.size(); }
  double dedup_share() const {
    return acks_ > 0 ? static_cast<double>(dedup_acks_) /
                           static_cast<double>(acks_)
                     : 0.0;
  }

 private:
  /// A read command: Zipf-chosen held-out recipe, kind by kReadWeights.
  std::string MakeRead() {
    const double u = rng_.NextDouble();
    int kind = 0;
    while (kind + 1 < kNumReadKinds && u > kind_cdf_[kind]) ++kind;
    const size_t item = std::min(
        static_cast<size_t>(std::lower_bound(zipf_cdf_.begin(),
                                             zipf_cdf_.end(),
                                             rng_.NextDouble()) -
                            zipf_cdf_.begin()),
        ctx_.heldout.size() - 1);
    const HeldOut& h = ctx_.heldout[item];
    const int topics = ctx_.config.model.num_topics;
    switch (kind) {
      case kPredict:
        return "PREDICT " + h.Args();
      case kNearest:
        return "NEAREST " + std::to_string(rng_.NextUint(topics));
      case kTopic:
        return "TOPIC " + std::to_string(rng_.NextUint(topics));
      default:
        return "SIMILAR " + h.Args() + " mode=" + kSimilarModes[kind - kSimKl];
    }
  }

  void Fail(const std::string& note) {
    ++r_.failed;
    r_.correct = false;
    if (r_.notes.size() < 4) r_.notes.push_back(note);
  }

  Context& ctx_;
  Fleet& fleet_;
  const size_t distinct_writes_;
  SpanLog& spans_;
  RunResult& r_;
  texrheo::Rng rng_;
  std::vector<double> zipf_cdf_;
  double kind_cdf_[kNumReadKinds] = {};
  std::vector<std::unique_ptr<serve::LineClient>> read_clients_;
  std::unique_ptr<serve::LineClient> write_client_;
  size_t writes_sent_ = 0;
  size_t distinct_scheduled_ = 0;
  std::map<size_t, uint64_t> acked_;  ///< Write item -> sequence.
  uint64_t acks_ = 0;
  uint64_t dedup_acks_ = 0;
  uint64_t request_base_ = 1;
};

/// A warm-up and one measured open-loop phase of the mix on `fleet` (two
/// replicas, router front, ingest front), then the fleet's counters.
Status ProbeMix(Context& ctx, Fleet& fleet, SpanLog& spans, RunResult& r) {
  const bool smoke = ctx.options.smoke;
  const size_t distinct_writes = smoke ? 16 : 64;
  const int readers =
      static_cast<int>(std::max(2u, std::thread::hardware_concurrency())) - 1;
  MixDriver driver(ctx, fleet, distinct_writes, spans, r);
  TEXRHEO_RETURN_IF_ERROR(driver.Connect(readers));
  // Warm-up (caches fill, batches form, the distinct writes land) is
  // checked, and its lateness is not reported.
  std::vector<double> lateness_us;
  driver.RunPhase(smoke ? 0.3 : 1.0, lateness_us);
  lateness_us.clear();
  driver.RunPhase(smoke ? 1.2 : 3.0, lateness_us);

  // Every replica serves the model that was packed.
  fleet.router->ProbeAllOnce();
  for (const auto& view : fleet.router->GetReplicaViews()) {
    if (view.fingerprint != ctx.packed->snapshot->fingerprint()) {
      r.correct = false;
      r.notes.push_back("replica " + std::to_string(view.id) +
                        " fingerprint mismatch");
    }
  }
  if (driver.distinct_acked() != distinct_writes) {
    r.correct = false;
    r.notes.push_back(std::to_string(driver.distinct_acked()) + " of " +
                      std::to_string(distinct_writes) +
                      " distinct writes acked");
  }

  double jobs = 0.0;
  double batches = 0.0;
  double shed = 0.0;
  double hits = 0.0;
  double lookups = 0.0;
  double received_max = 0.0;
  double received_sum = 0.0;
  for (const Fleet::Replica& replica : fleet.replicas) {
    const serve::QueryEngineStats stats = replica.engine->GetStats();
    jobs += static_cast<double>(stats.batcher.jobs_processed);
    batches += static_cast<double>(stats.batcher.batches);
    shed += static_cast<double>(stats.batcher.shed +
                                stats.batcher.deadline_expired);
    hits += static_cast<double>(stats.cache.hits);
    lookups += static_cast<double>(stats.cache.hits + stats.cache.misses);
    const double received =
        static_cast<double>(replica.server->GetStats().requests_received);
    received_max = std::max(received_max, received);
    received_sum += received;
  }
  const texrheo::obs::MetricsSnapshot snap =
      fleet.router->metrics()->TakeSnapshot();
  const Summary late = Summarize(lateness_us);
  MetricMap& m = r.metrics;
  m["gen.lateness_p99_us"] = {late.has_p99 ? late.p99 : late.p50, "us",
                              late.n};
  m["serve.batch_size_mean"] = {batches > 0.0 ? jobs / batches : 0.0,
                                "count"};
  m["serve.shed"] = {shed, "count"};
  m["serve.cache_hit_share"] = {lookups > 0.0 ? hits / lookups : 0.0,
                                "ratio"};
  m["router.retries"] = {
      static_cast<double>(snap.CounterValue("router.retries")), "count"};
  m["router.hedges"] = {
      static_cast<double>(snap.CounterValue("router.hedges")), "count"};
  m["router.replica_share"] = {
      received_sum > 0.0 ? received_max / received_sum : 0.0, "ratio"};
  m["ingest.dedup_share"] = {driver.dedup_share(), "ratio"};
  m["ingest.delta_docs"] = {
      static_cast<double>(
          fleet.replicas[0].engine->GetDeltaStats().delta_docs),
      "count"};
  r.notes.push_back("mix: " + std::to_string(readers) + " readers at " +
                    std::to_string(static_cast<int>(kMixRate)) +
                    "/s; wal filesystem " +
                    FileSystemType(fleet.options.wal_dir));
  return Status::OK();
}

Status Probe(Context& ctx, SpanLog& spans, RunResult& r) {
  MetricMap& m = r.metrics;
  m["corpus.generate_s"] = {ctx.times.generate_s, "s"};
  m["recipe.dataset_s"] = {ctx.times.dataset_s, "s"};
  m["embed.sgns_s"] = {ctx.times.sgns_s, "s"};
  TEXRHEO_RETURN_IF_ERROR(ProbeCore(ctx, spans, m));
  TEXRHEO_RETURN_IF_ERROR(ProbeServe(ctx, spans, m));
  FleetOptions options;
  options.replicas = 2;
  options.router = true;
  options.ingest = true;
  options.wal_dir = ctx.options.work_dir + "/probe-mix-wal";
  TEXRHEO_ASSIGN_OR_RETURN(
      auto fleet, StartFleet(options, ctx.packed->snapshot, &ctx.dataset));
  TEXRHEO_RETURN_IF_ERROR(ProbeMix(ctx, *fleet, spans, r));
  return ProbeRouterAndIngest(ctx, *fleet, spans, m);
}

}  // namespace

RunResult RunLayerProbe(Context& ctx, SpanLog& spans) {
  RunResult r;
  const Status status = Probe(ctx, spans, r);
  if (!status.ok()) r.error = status.ToString();
  return r;
}

}  // namespace perfbench
