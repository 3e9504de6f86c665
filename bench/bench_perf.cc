// google-benchmark microbenchmarks for the hot paths: Gibbs sweeps as a
// function of corpus size and topic count, categorical sampling strategies,
// the dense Cholesky kernel, Normal-Wishart posterior draws, the tokenizer,
// TPA simulation, and word2vec training throughput.

#include <arpa/inet.h>
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/collapsed_sampler.h"
#include "core/joint_topic_model.h"
#include "core/model_binary.h"
#include "core/serialization.h"
#include "corpus/generator.h"
#include "math/alias_table.h"
#include "math/divergence.h"
#include "math/distributions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recipe/dataset.h"
#include "rules/transactions.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/histogram.h"
#include "rheology/rheometer.h"
#include "text/tokenizer.h"
#include "text/word2vec.h"
#include "util/rng.h"

namespace texrheo {
namespace {

// Shared small corpus + dataset (built once).
const recipe::Dataset& SharedDataset(size_t recipes) {
  static std::map<size_t, recipe::Dataset>& cache =
      *new std::map<size_t, recipe::Dataset>();
  auto it = cache.find(recipes);
  if (it != cache.end()) return it->second;
  corpus::CorpusGenConfig config;
  config.num_recipes = recipes;
  corpus::CorpusGenerator generator(
      config, &rheology::GelPhysicsModel::Calibrated(),
      &text::TextureDictionary::Embedded());
  auto corpus = generator.Generate();
  auto ds = recipe::BuildDataset(corpus, recipe::IngredientDatabase::Embedded(),
                                 text::TextureDictionary::Embedded(), nullptr,
                                 recipe::DatasetConfig());
  return cache.emplace(recipes, std::move(ds).value()).first->second;
}

void BM_GibbsSweep(benchmark::State& state) {
  const recipe::Dataset& ds = SharedDataset(
      static_cast<size_t>(state.range(0)));
  core::JointTopicModelConfig config;
  config.num_topics = static_cast<int>(state.range(1));
  auto model = core::JointTopicModel::Create(config, &ds);
  if (!model.ok()) {
    state.SkipWithError("model create failed");
    return;
  }
  for (auto _ : state) {
    if (!model->RunSweeps(1).ok()) {
      state.SkipWithError("sweep failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.documents.size()));
}
BENCHMARK(BM_GibbsSweep)
    ->Args({4000, 10})
    ->Args({16000, 10})
    ->Args({16000, 20})
    ->Unit(benchmark::kMillisecond);

// Parallel-engine scaling: full z + y sweeps per second as a function of
// num_threads (1 = bit-exact serial chain; > 1 = AD-LDA sharded engine).
// The "sweeps_per_sec" counter is what ci.sh extracts from the JSON output
// to report the speedup curve; expect near-linear scaling up to the
// physical core count and a flat line on single-core machines. Iterations
// are timed manually with a wall clock: default rate counters divide by the
// *main thread's* CPU time, which shrinks as work shifts to the pool and
// would fake a speedup even on one core.
void BM_GibbsSweepThreads(benchmark::State& state) {
  const recipe::Dataset& ds = SharedDataset(16000);
  core::JointTopicModelConfig config;
  config.num_topics = 10;
  config.num_threads = static_cast<int>(state.range(0));
  auto model = core::JointTopicModel::Create(config, &ds);
  if (!model.ok()) {
    state.SkipWithError("model create failed");
    return;
  }
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    if (!model->RunSweeps(1).ok()) {
      state.SkipWithError("sweep failed");
      return;
    }
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["sweeps_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.documents.size()));
}
BENCHMARK(BM_GibbsSweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_CollapsedSweepThreads(benchmark::State& state) {
  const recipe::Dataset& ds = SharedDataset(4000);
  core::JointTopicModelConfig config;
  config.num_topics = 10;
  config.num_threads = static_cast<int>(state.range(0));
  auto model = core::CollapsedJointTopicModel::Create(config, &ds);
  if (!model.ok()) {
    state.SkipWithError("model create failed");
    return;
  }
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    if (!model->RunSweeps(1).ok()) {
      state.SkipWithError("sweep failed");
      return;
    }
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["sweeps_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.documents.size()));
}
BENCHMARK(BM_CollapsedSweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Raw cost of the metrics hot path: one pre-registered counter increment,
// one gauge set, and one histogram record per iteration — what a single
// instrumented operation pays. Registration is outside the timed loop, as
// in production.
void BM_MetricsOverhead(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.RegisterCounter("bench.count");
  obs::Gauge* gauge = registry.RegisterGauge("bench.level");
  LatencyHistogram* hist = registry.RegisterHistogram("bench.latency_us");
  uint64_t i = 0;
  for (auto _ : state) {
    counter->Increment();
    gauge->Set(static_cast<double>(i));
    hist->Record(i++ & 1023);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsOverhead);

// End-to-end instrumentation overhead on the real hot path: two serial
// Gibbs chains with the same seed (bit-identical trajectories, so identical
// work) run alternating sweeps inside every iteration — one with the full
// metrics + trace stack attached (production Tracer config: no record ring,
// histogram export only), one detached. Pairing the sweeps back to back
// cancels clock-frequency / load drift that sequential A-then-B runs pick
// up on a shared single-core box. ci.sh fails the --metrics leg when
// overhead_pct > 2.
void BM_InstrumentedSweep(benchmark::State& state) {
  const recipe::Dataset& ds = SharedDataset(4000);
  core::JointTopicModelConfig config;
  config.num_topics = 10;
  auto plain = core::JointTopicModel::Create(config, &ds);
  auto instrumented = core::JointTopicModel::Create(config, &ds);
  if (!plain.ok() || !instrumented.ok()) {
    state.SkipWithError("model create failed");
    return;
  }
  obs::MetricsRegistry registry;
  obs::Tracer tracer(nullptr, obs::Tracer::Options{0});  // Production config.
  tracer.ExportDurationsTo(&registry);
  instrumented->SetObservability(&registry, &tracer);
  double plain_secs = 0.0;
  double instrumented_secs = 0.0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    bool ok = plain->RunSweeps(1).ok();
    auto t1 = std::chrono::steady_clock::now();
    ok = ok && instrumented->RunSweeps(1).ok();
    auto t2 = std::chrono::steady_clock::now();
    if (!ok) {
      state.SkipWithError("sweep failed");
      return;
    }
    plain_secs += std::chrono::duration<double>(t1 - t0).count();
    instrumented_secs += std::chrono::duration<double>(t2 - t1).count();
    state.SetIterationTime(std::chrono::duration<double>(t2 - t0).count());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["plain_sweeps_per_sec"] = iters / plain_secs;
  state.counters["instr_sweeps_per_sec"] = iters / instrumented_secs;
  state.counters["overhead_pct"] =
      100.0 * (instrumented_secs / plain_secs - 1.0);
  state.SetItemsProcessed(2 * state.iterations() *
                          static_cast<int64_t>(ds.documents.size()));
}
BENCHMARK(BM_InstrumentedSweep)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_CategoricalLinear(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextCategorical(weights));
  }
}
BENCHMARK(BM_CategoricalLinear)->Arg(10)->Arg(100)->Arg(1000);

void BM_CategoricalAlias(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> weights(static_cast<size_t>(state.range(0)));
  for (double& w : weights) w = rng.NextDouble();
  auto table = math::AliasTable::Build(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Sample(rng));
  }
}
BENCHMARK(BM_CategoricalAlias)->Arg(10)->Arg(100)->Arg(1000);

void BM_Cholesky(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  math::Matrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a(r, c) = rng.NextGaussian();
  }
  math::Matrix spd = a.Multiply(a.Transposed());
  for (size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  for (auto _ : state) {
    auto chol = math::Cholesky::Factor(spd);
    benchmark::DoNotOptimize(chol);
  }
}
BENCHMARK(BM_Cholesky)->Arg(3)->Arg(6)->Arg(16)->Arg(64);

void BM_NormalWishartSample(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  math::NormalWishartParams nw;
  nw.mu0 = math::Vector(dim, 5.0);
  nw.beta = 1.0;
  nw.nu = static_cast<double>(dim) + 3.0;
  nw.scale = math::Matrix::Identity(dim, 0.2);
  Rng rng(3);
  for (auto _ : state) {
    auto g = math::NormalWishartSample(rng, nw);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_NormalWishartSample)->Arg(3)->Arg(6);

void BM_GaussianLogPdf(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  auto g = math::Gaussian::FromPrecision(math::Vector(dim, 1.0),
                                         math::Matrix::Identity(dim, 2.0));
  math::Vector x(dim, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->LogPdf(x));
  }
}
BENCHMARK(BM_GaussianLogPdf)->Arg(3)->Arg(6);

void BM_Tokenizer(benchmark::State& state) {
  std::string description =
      "easy bavarois . dissolve the gelatin then whip with raw-cream . the "
      "texture is purupuru and fuwafuwa when chilled . topped with nuts for "
      "a sakusaku accent with nuts . served with strawberry .";
  const auto& dict = text::TextureDictionary::Embedded();
  int64_t bytes = 0;
  for (auto _ : state) {
    auto terms = text::Tokenizer::ExtractTextureTerms(description, dict);
    benchmark::DoNotOptimize(terms);
    bytes += static_cast<int64_t>(description.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_Tokenizer);

void BM_TpaSimulation(benchmark::State& state) {
  const auto& model = rheology::GelPhysicsModel::Calibrated();
  math::Vector gel(recipe::kNumGelTypes);
  gel[0] = 0.02;
  math::Vector emulsion(recipe::kNumEmulsionTypes);
  rheology::RheometerConfig config;
  for (auto _ : state) {
    auto m = rheology::SimulateDish(model, gel, emulsion, config);
    benchmark::DoNotOptimize(m);
  }
  state.SetLabel("full two-bite probe + inversion");
}
BENCHMARK(BM_TpaSimulation)->Unit(benchmark::kMillisecond);

void BM_CorpusGeneration(benchmark::State& state) {
  corpus::CorpusGenConfig config;
  config.num_recipes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    corpus::CorpusGenerator generator(
        config, &rheology::GelPhysicsModel::Calibrated(),
        &text::TextureDictionary::Embedded());
    auto recipes = generator.Generate();
    benchmark::DoNotOptimize(recipes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CorpusGeneration)->Arg(1000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_DiscreteKL(benchmark::State& state) {
  math::Vector p = {0.1, 0.0, 0.0, 0.0, 0.6, 0.3};
  math::Vector q = {0.02, 0.0, 0.0, 0.0, 0.78, 0.2};
  for (auto _ : state) {
    auto kl = math::DiscreteKL(p, q);
    benchmark::DoNotOptimize(kl);
  }
}
BENCHMARK(BM_DiscreteKL);

void BM_AprioriMine(benchmark::State& state) {
  corpus::CorpusGenConfig config;
  config.num_recipes = static_cast<size_t>(state.range(0));
  corpus::CorpusGenerator generator(
      config, &rheology::GelPhysicsModel::Calibrated(),
      &text::TextureDictionary::Embedded());
  auto recipes = generator.Generate();
  rules::TransactionBuilder builder;
  auto transactions = builder.EncodeCorpus(
      recipes, recipe::IngredientDatabase::Embedded(),
      text::TextureDictionary::Embedded());
  rules::AprioriConfig apriori;
  apriori.min_support = 0.01;
  apriori.min_confidence = 0.3;
  apriori.max_itemset_size = 3;
  for (auto _ : state) {
    auto rules = rules::Apriori::MineRules(transactions, apriori);
    benchmark::DoNotOptimize(rules);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(transactions.size()));
}
BENCHMARK(BM_AprioriMine)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

void BM_ModelSerialization(benchmark::State& state) {
  corpus::CorpusGenConfig config;
  config.num_recipes = 4000;
  corpus::CorpusGenerator generator(
      config, &rheology::GelPhysicsModel::Calibrated(),
      &text::TextureDictionary::Embedded());
  auto recipes = generator.Generate();
  auto dataset = recipe::BuildDataset(
      recipes, recipe::IngredientDatabase::Embedded(),
      text::TextureDictionary::Embedded(), nullptr, recipe::DatasetConfig());
  core::JointTopicModelConfig model_config;
  model_config.sweeps = 30;
  auto model = core::JointTopicModel::Create(model_config, &dataset.value());
  (void)model->Train();
  core::ModelSnapshot snapshot =
      core::MakeSnapshot(model->Estimate(), dataset->term_vocab);
  for (auto _ : state) {
    std::string serialized = core::SerializeModel(snapshot);
    auto restored = core::DeserializeModel(serialized);
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_ModelSerialization)->Unit(benchmark::kMillisecond);

// Checkpoint durability cost: one full save (encode + atomic write-temp +
// fsync + rename) plus a load-and-restore of the same snapshot, on a
// trained mid-size model. "ckpt_bytes" reports the on-disk frame size so
// the JSON output tracks format growth; "saves_per_sec" is the rate a
// training loop pays per checkpoint interval.
void BM_CheckpointSaveRestore(benchmark::State& state) {
  const recipe::Dataset& ds = SharedDataset(4000);
  core::JointTopicModelConfig config;
  config.num_topics = 10;
  auto model = core::JointTopicModel::Create(config, &ds);
  if (!model.ok()) {
    state.SkipWithError("model create failed");
    return;
  }
  if (!model->RunSweeps(5).ok()) {
    state.SkipWithError("warmup sweeps failed");
    return;
  }
  std::string path = "bench_checkpoint_tmp.ckpt";
  double ckpt_bytes = 0.0;
  for (auto _ : state) {
    auto begin = std::chrono::steady_clock::now();
    core::CheckpointState snapshot = model->CaptureCheckpoint();
    if (!core::WriteCheckpointFile(path, snapshot).ok()) {
      state.SkipWithError("checkpoint write failed");
      return;
    }
    auto restored = core::ReadCheckpointFile(path);
    if (!restored.ok() || !model->RestoreFromCheckpoint(*restored).ok()) {
      state.SkipWithError("checkpoint restore failed");
      return;
    }
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count());
    ckpt_bytes = static_cast<double>(core::EncodeCheckpoint(snapshot).size());
  }
  std::remove(path.c_str());
  state.counters["ckpt_bytes"] = ckpt_bytes;
  state.counters["saves_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CheckpointSaveRestore)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// --- Snapshot load: v2 text parse vs mmap (BM_SnapshotLoad*) -----------
//
// ci.sh --bench filters on 'BM_SnapshotLoad' and writes the JSON to
// bench/out/model_load.json, then gates on the warm-mmap speedup: loading
// the packed .dat/.idx pair must be >= 20x faster than parsing the v2
// text file (compare "real_time" across the two entries). The v2 entry
// parses the text and then packs it in memory into the same image the
// mmap entry maps; both pay the per-section CRC pass and the summary
// build, and only the v2 entry pays text-to-double parsing and the pack.

struct SnapshotLoadFiles {
  std::string v2;   ///< v2 text model file.
  std::string idx;  ///< Index of the packed binary pair.
};

/// Persists a deterministic production-shaped model (20 topics over a
/// 6000-word vocabulary — recipe-site scale, far beyond the toy corpora
/// above) in both formats, once.
const SnapshotLoadFiles& SharedModelFiles() {
  static auto& files = *new SnapshotLoadFiles([] {
    constexpr int kTopics = 20;
    constexpr size_t kVocab = 6000;
    Rng rng(20260808);
    core::ModelSnapshot snap;
    for (size_t v = 0; v < kVocab; ++v) {
      snap.vocab.AddWithCount("word" + std::to_string(v),
                              1 + static_cast<int64_t>(rng.NextUint(50)));
    }
    snap.estimates.phi.assign(kTopics, std::vector<double>(kVocab));
    for (auto& row : snap.estimates.phi) {
      double sum = 0.0;
      for (double& p : row) {
        p = 0.01 + rng.NextDouble();
        sum += p;
      }
      for (double& p : row) p /= sum;
    }
    for (int k = 0; k < kTopics; ++k) {
      snap.estimates.gel_topics.push_back(
          math::Gaussian::FromPrecision(math::Vector(3, 1.0 + k),
                                        math::Matrix::Identity(3, 4.0))
              .value());
      snap.estimates.emulsion_topics.push_back(
          math::Gaussian::FromPrecision(math::Vector(6, 0.5 * k),
                                        math::Matrix::Identity(6, 4.0))
              .value());
      snap.estimates.topic_recipe_count.push_back(50 + k);
    }
    SnapshotLoadFiles f;
    f.v2 = "/tmp/texrheo_bench_model_load.txt";
    std::string base = "/tmp/texrheo_bench_model_load_bin";
    if (!core::SaveModel(f.v2, snap).ok() ||
        !core::WriteModelBinary(snap, base).ok()) {
      return SnapshotLoadFiles();
    }
    f.idx = base + ".idx";
    return f;
  }());
  return files;
}

void BM_SnapshotLoadV2Parse(benchmark::State& state) {
  const SnapshotLoadFiles& files = SharedModelFiles();
  if (files.v2.empty()) {
    state.SkipWithError("model files unavailable");
    return;
  }
  for (auto _ : state) {
    auto snapshot = serve::ServingSnapshot::FromModelFile(files.v2);
    if (!snapshot.ok()) {
      state.SkipWithError("v2 load failed");
      return;
    }
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_SnapshotLoadV2Parse)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoadMmapWarm(benchmark::State& state) {
  const SnapshotLoadFiles& files = SharedModelFiles();
  if (files.idx.empty()) {
    state.SkipWithError("model files unavailable");
    return;
  }
  {
    // Prime the page cache so every timed iteration is a warm load.
    auto warmup = serve::ServingSnapshot::FromBinaryFile(files.idx);
    if (!warmup.ok()) {
      state.SkipWithError("mmap load failed");
      return;
    }
    state.counters["mapped_bytes"] =
        static_cast<double>((*warmup)->mapped_bytes());
  }
  for (auto _ : state) {
    auto snapshot = serve::ServingSnapshot::FromBinaryFile(files.idx);
    if (!snapshot.ok()) {
      state.SkipWithError("mmap load failed");
      return;
    }
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_SnapshotLoadMmapWarm)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoadMmapCold(benchmark::State& state) {
  // Best-effort cold-cache load: ask the kernel to drop the .dat pages
  // before each iteration. POSIX_FADV_DONTNEED is advisory, so this is an
  // upper bound on warmth rather than a guaranteed cold read; the gate in
  // ci.sh therefore compares the *warm* number against the v2 parse.
  const SnapshotLoadFiles& files = SharedModelFiles();
  if (files.idx.empty()) {
    state.SkipWithError("model files unavailable");
    return;
  }
  std::string dat = files.idx.substr(0, files.idx.size() - 4) + ".dat";
  for (auto _ : state) {
    state.PauseTiming();
    int fd = open(dat.c_str(), O_RDONLY);
    if (fd >= 0) {
      posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
      close(fd);
    }
    state.ResumeTiming();
    auto snapshot = serve::ServingSnapshot::FromBinaryFile(files.idx);
    if (!snapshot.ok()) {
      state.SkipWithError("mmap load failed");
      return;
    }
    benchmark::DoNotOptimize(snapshot);
  }
}
BENCHMARK(BM_SnapshotLoadMmapCold)->Unit(benchmark::kMillisecond);

// --- Serving-layer benchmarks (BM_QueryEngine*) ------------------------
//
// ci.sh --bench filters on 'BM_QueryEngine' and writes the JSON to
// bench/out/serve.json. The pair FoldIn / CachedHit is the acceptance
// check for the result cache: the cached p50 must be >= 10x faster than
// the uncached fold-in path (compare "p50_us" across the two entries).

std::shared_ptr<const serve::ServingSnapshot> SharedServingSnapshot() {
  static auto& snapshot =
      *new std::shared_ptr<const serve::ServingSnapshot>([] {
        const recipe::Dataset& ds = SharedDataset(4000);
        core::JointTopicModelConfig config;
        config.num_topics = 10;
        config.sweeps = 30;
        auto model = core::JointTopicModel::Create(config, &ds);
        if (!model.ok() || !model->Train().ok()) {
          return std::shared_ptr<const serve::ServingSnapshot>();
        }
        core::ModelSnapshot snap =
            core::MakeSnapshot(model->Estimate(), ds.term_vocab);
        auto serving = serve::ServingSnapshot::FromModel(snap, "bench");
        return serving.ok()
                   ? *serving
                   : std::shared_ptr<const serve::ServingSnapshot>();
      }());
  return snapshot;
}

serve::TextureQuery BenchQuery() {
  serve::TextureQuery query;
  query.gel_concentration = math::Vector(recipe::kNumGelTypes);
  query.gel_concentration[0] = 0.012;
  query.texture_terms = {"purupuru", "fuwafuwa"};
  return query;
}

// Uncached PredictTexture: cache disabled, so every iteration pays the
// full eq.-5 fold-in, on the calling thread. The queries_per_sec rate is
// over wall time (UseRealTime), as every serving rate is.
void BM_QueryEngineFoldIn(benchmark::State& state) {
  auto snapshot = SharedServingSnapshot();
  if (snapshot == nullptr) {
    state.SkipWithError("serving snapshot setup failed");
    return;
  }
  serve::QueryEngineConfig config;
  config.cache_capacity = 0;
  auto engine = serve::QueryEngine::Create(config, snapshot, nullptr);
  if (!engine.ok()) {
    state.SkipWithError("engine create failed");
    return;
  }
  serve::TextureQuery query = BenchQuery();
  for (auto _ : state) {
    auto prediction = (*engine)->PredictTexture(query);
    if (!prediction.ok()) {
      state.SkipWithError("predict failed");
      return;
    }
    benchmark::DoNotOptimize(prediction->topic);
  }
  serve::QueryEngineStats stats = (*engine)->GetStats();
  state.counters["queries_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["p50_us"] =
      static_cast<double>(stats.predict.QuantileUpperBound(0.5));
  state.counters["cache_hit_rate"] = stats.cache.HitRate();
}
BENCHMARK(BM_QueryEngineFoldIn)->UseRealTime()->Unit(benchmark::kMicrosecond);

// Cached PredictTexture: the same canonical query repeated, so after the
// primer every iteration is an LRU hit. Wall-clock rate, as above.
void BM_QueryEngineCachedHit(benchmark::State& state) {
  auto snapshot = SharedServingSnapshot();
  if (snapshot == nullptr) {
    state.SkipWithError("serving snapshot setup failed");
    return;
  }
  serve::QueryEngineConfig config;
  auto engine = serve::QueryEngine::Create(config, snapshot, nullptr);
  if (!engine.ok()) {
    state.SkipWithError("engine create failed");
    return;
  }
  serve::TextureQuery query = BenchQuery();
  if (!(*engine)->PredictTexture(query).ok()) {  // Prime the cache.
    state.SkipWithError("primer predict failed");
    return;
  }
  for (auto _ : state) {
    auto prediction = (*engine)->PredictTexture(query);
    if (!prediction.ok() || !prediction->from_cache) {
      state.SkipWithError("expected a cache hit");
      return;
    }
    benchmark::DoNotOptimize(prediction->topic);
  }
  serve::QueryEngineStats stats = (*engine)->GetStats();
  state.counters["queries_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["p50_us"] =
      static_cast<double>(stats.predict.QuantileUpperBound(0.5));
  state.counters["cache_hit_rate"] = stats.cache.HitRate();
}
BENCHMARK(BM_QueryEngineCachedHit)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Concurrent load: each iteration fires kClients threads x kPerClient
// uncached queries, each folding in on its own client thread under the
// engine's in-flight admission control ("shed" counts its rejections).
void BM_QueryEngineConcurrent(benchmark::State& state) {
  auto snapshot = SharedServingSnapshot();
  if (snapshot == nullptr) {
    state.SkipWithError("serving snapshot setup failed");
    return;
  }
  serve::QueryEngineConfig config;
  config.cache_capacity = 0;
  auto engine = serve::QueryEngine::Create(config, snapshot, nullptr);
  if (!engine.ok()) {
    state.SkipWithError("engine create failed");
    return;
  }
  constexpr int kClients = 4;
  const int per_client = static_cast<int>(state.range(0));
  serve::TextureQuery query = BenchQuery();
  for (auto _ : state) {
    auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (int i = 0; i < per_client; ++i) {
          auto prediction = (*engine)->PredictTexture(query);
          benchmark::DoNotOptimize(prediction);
        }
      });
    }
    for (auto& t : clients) t.join();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count());
  }
  serve::QueryEngineStats stats = (*engine)->GetStats();
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kClients * per_client),
      benchmark::Counter::kIsRate);
  state.counters["shed"] = static_cast<double>(stats.batcher.shed);
}
BENCHMARK(BM_QueryEngineConcurrent)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// --- Serving robustness benchmark (BM_ServerUnderSlowClient) -----------
//
// ci.sh --bench filters on 'BM_ServerUnderSlowClient' and writes the JSON
// to bench/out/serve_robustness.json. This is the wire-level isolation
// check: one hostile client parks half a request line on a connection
// (occupying a handler thread inside its idle budget) while healthy
// clients run PREDICT round trips through real sockets. The healthy
// "p50_us" / "p99_us" counters are the acceptance numbers — a stalled
// peer must cost its own connection, never the fleet's latency.

int BenchRawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void BM_ServerUnderSlowClient(benchmark::State& state) {
  auto snapshot = SharedServingSnapshot();
  if (snapshot == nullptr) {
    state.SkipWithError("serving snapshot setup failed");
    return;
  }
  serve::QueryEngineConfig config;
  auto engine = serve::QueryEngine::Create(config, snapshot, nullptr);
  if (!engine.ok()) {
    state.SkipWithError("engine create failed");
    return;
  }
  serve::ServerOptions options;
  options.idle_timeout_millis = 600000;  // The staller outlives the bench.
  serve::LineProtocolServer server(engine->get(), options);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  // The staller: half a request line, then silence for the whole run.
  int staller = BenchRawConnect(server.port());
  if (staller < 0) {
    state.SkipWithError("staller connect failed");
    return;
  }
  (void)::send(staller, "PREDICT gelatin=", 16, MSG_NOSIGNAL);

  constexpr int kHealthy = 4;
  serve::LineClientOptions client_options;
  client_options.io_timeout_millis = 30000;
  std::vector<std::unique_ptr<serve::LineClient>> clients;
  for (int c = 0; c < kHealthy; ++c) {
    auto client =
        serve::LineClient::Connect("127.0.0.1", server.port(), client_options);
    if (!client.ok()) {
      state.SkipWithError("healthy client connect failed");
      ::close(staller);
      return;
    }
    clients.push_back(std::move(client).value());
  }

  LatencyHistogram healthy_latency;
  const std::string command = "PREDICT gelatin=0.012 terms=purupuru,fuwafuwa";
  for (auto _ : state) {
    for (auto& client : clients) {
      auto begin = std::chrono::steady_clock::now();
      auto reply = client->RoundTrip(command);
      healthy_latency.Record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - begin)
              .count());
      if (!reply.ok() || reply->rfind("OK", 0) != 0) {
        state.SkipWithError("healthy round trip failed under staller");
        ::close(staller);
        return;
      }
      benchmark::DoNotOptimize(reply);
    }
  }
  ::close(staller);

  LatencyHistogram::Snapshot lat = healthy_latency.TakeSnapshot();
  serve::ServerStats stats = server.GetStats();
  state.counters["round_trips_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kHealthy),
      benchmark::Counter::kIsRate);
  state.counters["p50_us"] =
      static_cast<double>(lat.QuantileUpperBound(0.5));
  state.counters["p99_us"] =
      static_cast<double>(lat.QuantileUpperBound(0.99));
  state.counters["accepted"] =
      static_cast<double>(stats.connections_accepted);
  state.counters["shed"] = static_cast<double>(stats.connections_shed);
}
BENCHMARK(BM_ServerUnderSlowClient)->Unit(benchmark::kMicrosecond);

void BM_Word2VecEpoch(benchmark::State& state) {
  // Training throughput on a small recipe-like corpus.
  corpus::CorpusGenConfig config;
  config.num_recipes = 2000;
  corpus::CorpusGenerator generator(
      config, &rheology::GelPhysicsModel::Calibrated(),
      &text::TextureDictionary::Embedded());
  auto recipes = generator.Generate();
  std::vector<std::vector<std::string>> sentences;
  int64_t tokens = 0;
  for (const auto& r : recipes) {
    sentences.push_back(text::Tokenizer::Tokenize(r.description));
    tokens += static_cast<int64_t>(sentences.back().size());
  }
  text::Word2VecConfig w2v;
  w2v.epochs = 1;
  w2v.dim = 32;
  for (auto _ : state) {
    auto model = text::Word2Vec::Train(sentences, w2v);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * tokens);
  state.SetLabel("one epoch, dim 32");
}
BENCHMARK(BM_Word2VecEpoch)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace texrheo

BENCHMARK_MAIN();
