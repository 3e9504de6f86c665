#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "serve/protocol.h"
#include "util/rng.h"

namespace perfbench {

using texrheo::Status;
using texrheo::StatusOr;
namespace core = texrheo::core;
namespace serve = texrheo::serve;

namespace {

size_t TokenCount(const texrheo::recipe::Dataset& dataset) {
  size_t tokens = 0;
  for (const auto& doc : dataset.documents) tokens += doc.term_ids.size();
  return std::max<size_t>(1, tokens);
}

void Put(MetricMap& map, const std::string& name, double value,
         const std::string& unit, size_t samples = 0) {
  map[name] = Metric{value, unit, samples};
}

std::string Fmt(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

StatusOr<std::unique_ptr<Context>> Setup(const BenchOptions& options,
                                         bool for_probe) {
  auto ctx = std::make_unique<Context>();
  ctx->options = options;
  ctx->config = PaperConfig(options);
  TEXRHEO_ASSIGN_OR_RETURN(ctx->dataset,
                           BuildTrainingDataset(ctx->config, &ctx->times));
  const bool serving = options.workload != "train";
  if (serving || for_probe) {
    TEXRHEO_ASSIGN_OR_RETURN(
        ctx->heldout,
        BuildHeldOut(ctx->config, options.heldout_seed, ctx->dataset));
    TEXRHEO_ASSIGN_OR_RETURN(
        PackedModel packed,
        TrainAndPack(ctx->config, ctx->dataset, options.work_dir + "/model",
                     &ctx->times));
    ctx->packed = std::make_unique<PackedModel>(std::move(packed));
  }
  if (serving) {
    TEXRHEO_ASSIGN_OR_RETURN(
        ctx->fleet,
        StartFleet(FleetOptions{}, ctx->packed->snapshot, &ctx->dataset));
  }
  return ctx;
}

// --- train --------------------------------------------------------------

RunResult RunTrain(Context& ctx, double seconds, SpanLog& spans) {
  RunResult r;
  const int sweeps = ctx.config.model.sweeps;
  const double tokens = static_cast<double>(TokenCount(ctx.dataset));
  std::vector<double> serial_us;
  std::vector<double> parallel_us;
  double serial_wall = 0.0;
  double parallel_wall = 0.0;
  double loglik_per_token = 0.0;
  uint64_t request = 0;
  // Each round runs both chains from a seed of its own, so a run averages
  // over many trajectories instead of timing one trajectory many times.
  const Clock::time_point start = Clock::now();
  for (uint64_t round = 0; round == 0 || SecondsSince(start) < seconds;
       ++round) {
    for (int threads : {1, 4}) {
      core::JointTopicModelConfig config = ctx.config.model;
      config.num_threads = threads;
      config.seed = texrheo::Rng::StreamSeed(ctx.options.seed, round);
      ScopedSpan chain(spans, threads == 1 ? "train.chain" : "train.chain_4t",
                       0, ++request);
      auto model_or = core::JointTopicModel::Create(config, &ctx.dataset);
      if (!model_or.ok()) {
        r.error = model_or.status().ToString();
        return r;
      }
      core::JointTopicModel& model = *model_or;
      std::vector<double> samples;
      int done = 0;
      const Clock::time_point chain_start = Clock::now();
      for (; done < sweeps; ++done) {
        ScopedSpan span(spans, threads == 1 ? "train.sweep" : "train.sweep_4t",
                        chain.id(), request);
        const Clock::time_point t0 = Clock::now();
        Status status = model.RunSweeps(1);
        samples.push_back(MicrosBetween(t0, Clock::now()));
        ++r.attempted;
        if (!status.ok()) {
          ++r.failed;
          r.correct = false;
          r.notes.push_back("sweep failed: " + status.ToString());
          break;
        }
      }
      const double wall = SecondsSince(chain_start);
      chain.End();
      // The host's speed drifts over seconds; these lines show it per round.
      r.notes.push_back(Fmt(threads == 1
                                ? "round %.0f serial p50 %.1fus, %.1f sweeps/s"
                                : "round %.0f 4-thread p50 %.1fus, %.1f sweeps/s",
                            static_cast<double>(round), Median(samples),
                            static_cast<double>(samples.size()) / wall));
      (threads == 1 ? serial_wall : parallel_wall) += wall;
      std::vector<double>& pooled = threads == 1 ? serial_us : parallel_us;
      pooled.insert(pooled.end(), samples.begin(), samples.end());
      if (threads != 1) continue;
      // Quality guard on the serial chain, outside the timed sweeps.
      const double ll = model.LogJointLikelihood() / tokens;
      bool ok = std::isfinite(ll);
      const core::TopicEstimates estimates = model.Estimate();
      for (const std::vector<double>& row : estimates.phi) {
        double sum = 0.0;
        for (double p : row) sum += p;
        if (!(std::fabs(sum - 1.0) <= 1e-9)) ok = false;
      }
      loglik_per_token = ll;
      if (!ok) {
        r.failed += static_cast<uint64_t>(done);
        r.correct = false;
        r.notes.push_back("serial chain failed its likelihood/phi check");
      }
    }
  }

  const Summary serial = Summarize(serial_us);
  const Summary parallel = Summarize(parallel_us);
  if (!serial.has_p99) {
    r.error = "too few serial sweeps for a p99";
    return r;
  }
  const double rate = static_cast<double>(serial.n) / serial_wall;
  const double rate_4t = static_cast<double>(parallel.n) / parallel_wall;
  Put(r.metrics, "p50_us", serial.p50, "us", serial.n);
  Put(r.metrics, "p99_us", serial.p99, "us", serial.n);
  Put(r.metrics, "side_p50_us", parallel.p50, "us", parallel.n);
  Put(r.metrics, "rate_per_s", rate, "1/s", serial.n);
  Put(r.named, "train.sweeps_per_s", rate, "1/s", serial.n);
  Put(r.named, "train.sweeps_per_s_4t", rate_4t, "1/s", parallel.n);
  Put(r.named, "train.loglik_per_token", loglik_per_token, "nats");
  return r;
}

// --- serve-lone -----------------------------------------------------------

/// Fresh-fleet segments per serve-lone run.
constexpr int kSegments = 10;

Status RestartFleet(Context& ctx) {
  if (!ctx.fleet) return Status::OK();
  const FleetOptions options = ctx.fleet->options;
  ctx.fleet.reset();
  TEXRHEO_ASSIGN_OR_RETURN(
      ctx.fleet, StartFleet(options, ctx.packed->snapshot, &ctx.dataset));
  return Status::OK();
}

namespace {

/// One serve-lone segment on the context's (fresh) fleet: closed-loop
/// requests for `seconds`, then the transcript check. Fills the segment's
/// latencies and the wall time they cover.
Status LoneSegment(Context& ctx, double seconds, SpanLog& spans,
                   texrheo::Rng& rng, std::vector<double>& predict_us,
                   std::vector<double>& similar_us, double& timed_wall,
                   RunResult& r) {
  Fleet& fleet = *ctx.fleet;
  serve::QueryEngine* engine = fleet.replicas[0].engine.get();
  TEXRHEO_ASSIGN_OR_RETURN(auto client_ptr,
                           Connect(fleet.replicas[0].server->port()));
  serve::LineClient& client = *client_ptr;

  // The transcript: every line sent, its reply, and whether the caches were
  // flushed (engine Reload of the same snapshot) just before it.
  struct Entry {
    std::string line;
    std::string reply;
    bool reload_before = false;
    bool similar = false;
  };
  std::vector<Entry> transcript;
  const std::vector<HeldOut>& heldout = ctx.heldout;
  size_t cursor = 0;  // Position in the current pass over the held-out set.
  bool reload_next = false;

  // Sends one request; a pass ends after every held-out recipe was used
  // once, and the caches are flushed before the next pass so every request
  // misses them.
  auto send = [&](bool timed) -> Status {
    if (cursor == heldout.size()) {
      TEXRHEO_RETURN_IF_ERROR(engine->Reload(ctx.packed->snapshot));
      cursor = 0;
      reload_next = true;
    }
    const uint64_t request = transcript.size() + 1;
    ScopedSpan root(spans, "lone.request", 0, request);
    Entry entry;
    entry.reload_before = reload_next;
    reload_next = false;
    {
      ScopedSpan format(spans, "lone.format", root.id(), request);
      entry.similar = rng.NextBernoulli(0.2);
      entry.line = (entry.similar ? "SIMILAR " : "PREDICT ") +
                   heldout[cursor++].Args() +
                   (entry.similar ? " mode=kl" : "");
    }
    ScopedSpan rt(spans, "lone.round_trip", root.id(), request);
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::string> reply = client.RoundTrip(entry.line);
    const double us = MicrosBetween(t0, Clock::now());
    rt.End();
    if (!reply.ok()) return reply.status();
    entry.reply = std::move(*reply);
    if (timed) {
      (entry.similar ? similar_us : predict_us).push_back(us);
      timed_wall += us * 1e-6;
    }
    transcript.push_back(std::move(entry));
    return Status::OK();
  };

  // Warm-up: a few untimed requests, then a flush so the timed passes
  // start cold again.
  const size_t warmup = std::min<size_t>(64, heldout.size() / 4);
  for (size_t i = 0; i < warmup; ++i) {
    TEXRHEO_RETURN_IF_ERROR(send(false));
  }
  cursor = heldout.size();  // Forces the flush before the first timed send.
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    TEXRHEO_RETURN_IF_ERROR(send(true));
  }
  client.Close();

  // Reference transcript: the same lines through HandleCommand on a fresh
  // engine with the same seed, flushed at the same points. Query N draws
  // from Rng::ForStream(seed, N), so a single client's answers are fixed;
  // linger is a timing knob only, and 0 keeps the replay fast.
  serve::QueryEngineConfig reference_config;
  reference_config.batch_linger_micros = 0;
  TEXRHEO_ASSIGN_OR_RETURN(
      auto reference_engine,
      serve::QueryEngine::Create(reference_config, ctx.packed->snapshot,
                                 &ctx.dataset));
  serve::LineProtocolServer reference(reference_engine.get(),
                                      serve::ServerOptions{});
  for (size_t i = 0; i < transcript.size(); ++i) {
    const Entry& entry = transcript[i];
    if (entry.reload_before) {
      TEXRHEO_RETURN_IF_ERROR(reference_engine->Reload(ctx.packed->snapshot));
    }
    bool quit = false;
    const std::string expected = reference.HandleCommand(entry.line, &quit);
    if (i < warmup) continue;
    ++r.attempted;
    if (entry.reply != expected || entry.reply.rfind("OK ", 0) != 0) {
      ++r.failed;
      r.correct = false;
      if (r.notes.size() < 3) {
        r.notes.push_back("mismatch: '" + entry.line + "' -> '" +
                          entry.reply + "' expected '" + expected + "'");
      }
    }
  }
  return Status::OK();
}

}  // namespace

RunResult RunLone(Context& ctx, double seconds, SpanLog& spans) {
  RunResult r;
  texrheo::Rng rng(ctx.options.seed ^ 0x10e10e10eULL);
  // Several segments, each on a fresh fleet: request latency here is
  // mostly cross-thread wake-ups, whose cost depends on where the
  // scheduler placed the serving threads, so one placement per run would
  // make whole runs read fast or slow. Each metric is the median of the
  // segments' values, so a slow spell of the host that covers less than
  // half the segments does not move it.
  const int segments = ctx.options.smoke ? 1 : kSegments;
  std::vector<double> predict_p50;
  std::vector<double> predict_p99;
  std::vector<double> similar_p50;
  std::vector<double> rate;
  size_t predicts = 0;
  size_t similars = 0;
  for (int i = 0; i < segments; ++i) {
    std::vector<double> predict_us;
    std::vector<double> similar_us;
    double timed_wall = 0.0;
    Status s = i == 0 ? Status::OK() : RestartFleet(ctx);
    if (s.ok()) {
      s = LoneSegment(ctx, seconds / segments, spans, rng, predict_us,
                      similar_us, timed_wall, r);
    }
    if (!s.ok()) {
      r.error = s.ToString();
      return r;
    }
    const Summary predict = Summarize(predict_us);
    const Summary similar = Summarize(similar_us);
    r.notes.push_back(Fmt("segment %.0f predict p50 %.1fus p99 %.1fus", i,
                          predict.p50, predict.p99));
    if (!predict.has_p99 || similar.n == 0) {
      r.error = "too few requests in a segment for a PREDICT p99";
      return r;
    }
    predict_p50.push_back(predict.p50);
    predict_p99.push_back(predict.p99);
    similar_p50.push_back(similar.p50);
    rate.push_back(static_cast<double>(predict.n + similar.n) / timed_wall);
    predicts += predict.n;
    similars += similar.n;
  }

  Put(r.metrics, "p50_us", Median(predict_p50), "us", predicts);
  Put(r.metrics, "p99_us", Median(predict_p99), "us", predicts);
  Put(r.metrics, "side_p50_us", Median(similar_p50), "us", similars);
  Put(r.metrics, "rate_per_s", Median(rate), "1/s", predicts + similars);
  Put(r.named, "lone.predict_p50_us", Median(predict_p50), "us", predicts);
  Put(r.named, "lone.predict_p99_us", Median(predict_p99), "us", predicts);
  Put(r.named, "lone.similar_p50_us", Median(similar_p50), "us", similars);
  return r;
}

}  // namespace perfbench
