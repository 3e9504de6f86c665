#include "serve/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <sstream>

#include "recipe/features.h"
#include "recipe/ingredient.h"
#include "serve/cache.h"

namespace texrheo::serve {

namespace {

/// Per-query accounting, covering every return path: bumps accepted on
/// entry, and at scope exit records wall time into the method's latency
/// histogram and bumps completed. accepted-before-work / completed-after
/// is what gives registry snapshots their accepted >= completed guarantee.
class QueryScope {
 public:
  QueryScope(obs::Counter* accepted, obs::Counter* completed,
             LatencyHistogram* hist)
      : completed_(completed),
        hist_(hist),
        start_(std::chrono::steady_clock::now()) {
    accepted->Increment();
  }
  ~QueryScope() {
    hist_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    completed_->Increment();
  }

 private:
  obs::Counter* completed_;
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

math::Vector OrZeros(const math::Vector& v, size_t dim) {
  return v.empty() ? math::Vector(dim) : v;
}

}  // namespace

const char* SimilarityModeName(SimilarityMode mode) {
  switch (mode) {
    case SimilarityMode::kKl: return "kl";
    case SimilarityMode::kEmbed: return "embed";
    case SimilarityMode::kLexical: return "lexical";
    case SimilarityMode::kFused: return "fused";
  }
  return "unknown";
}

StatusOr<SimilarityMode> ParseSimilarityMode(std::string_view name) {
  if (name == "kl") return SimilarityMode::kKl;
  if (name == "embed") return SimilarityMode::kEmbed;
  if (name == "lexical") return SimilarityMode::kLexical;
  if (name == "fused") return SimilarityMode::kFused;
  return Status::InvalidArgument(
      "unknown similarity mode '" + std::string(name) +
      "' (expected kl, embed, lexical, or fused)");
}

StatusOr<TextureQuery> QueryFromIngredients(
    const std::vector<std::pair<std::string, double>>& ingredients,
    std::vector<std::string> texture_terms) {
  const recipe::IngredientDatabase& db =
      recipe::IngredientDatabase::Embedded();
  TextureQuery query;
  query.gel_concentration = math::Vector(recipe::kNumGelTypes);
  query.emulsion_concentration = math::Vector(recipe::kNumEmulsionTypes);
  for (const auto& [name, concentration] : ingredients) {
    if (concentration < 0.0 || concentration > 1.0 ||
        !std::isfinite(concentration)) {
      return Status::InvalidArgument("concentration of '" + name +
                                     "' must be a ratio in [0, 1]");
    }
    const recipe::IngredientInfo* info = db.Find(name);
    if (info == nullptr) {
      return Status::InvalidArgument("unknown ingredient '" + name + "'");
    }
    switch (info->cls) {
      case recipe::IngredientClass::kGel:
        query.gel_concentration[static_cast<size_t>(info->gel_type)] +=
            concentration;
        break;
      case recipe::IngredientClass::kEmulsion:
        query.emulsion_concentration[static_cast<size_t>(
            info->emulsion_type)] += concentration;
        break;
      case recipe::IngredientClass::kOther:
        break;  // Not part of the model's concentration space.
    }
  }
  query.texture_terms = std::move(texture_terms);
  return query;
}

QueryEngine::QueryEngine(const QueryEngineConfig& config,
                         const recipe::Dataset* corpus)
    : config_(config),
      corpus_(corpus),
      cache_(config.cache_capacity),
      similar_cache_(config.similar_cache_capacity) {
  metrics_ = config.metrics != nullptr
                 ? config.metrics
                 : std::make_shared<obs::MetricsRegistry>();
  // Pipeline registration order (see header): accepted first, the fold_in
  // counters next, completed last — matching the order a request
  // increments them, because TakeSnapshot reads in reverse registration
  // order. The mode counters sit right after accepted for the same reason:
  // a snapshot can never show sum(modes) > accepted.
  queries_accepted_ = metrics_->RegisterCounter("serve.queries.accepted");
  for (size_t m = 0; m < kNumSimilarityModes; ++m) {
    similar_mode_[m] = metrics_->RegisterCounter(
        std::string("serve.similar.mode.") +
        SimilarityModeName(static_cast<SimilarityMode>(m)));
  }
  similar_cache_hits_ = metrics_->RegisterCounter("serve.similar.cache.hits");
  similar_cache_misses_ =
      metrics_->RegisterCounter("serve.similar.cache.misses");
  cache_hits_ = metrics_->RegisterCounter("serve.cache.hits");
  cache_misses_ = metrics_->RegisterCounter("serve.cache.misses");
  errors_ = metrics_->RegisterCounter("serve.errors");
  unknown_terms_ = metrics_->RegisterCounter("serve.unknown_terms");
  stale_vocab_ = metrics_->RegisterCounter("serve.queries.stale_vocab");
  delta_folded_ = metrics_->RegisterCounter("serve.delta.folded");
  reloads_ = metrics_->RegisterCounter("serve.reloads");
  delta_docs_gauge_ = metrics_->RegisterGauge("serve.delta.docs");
  pending_terms_gauge_ = metrics_->RegisterGauge("serve.delta.pending_terms");
  cache_size_ = metrics_->RegisterGauge("serve.cache.size");
  cache_capacity_ = metrics_->RegisterGauge("serve.cache.capacity");
  cache_evictions_ = metrics_->RegisterGauge("serve.cache.evictions");
  cache_insertions_ = metrics_->RegisterGauge("serve.cache.insertions");
  predict_latency_ = metrics_->RegisterHistogram("serve.predict_us");
  nearest_latency_ = metrics_->RegisterHistogram("serve.nearest_us");
  similar_latency_ = metrics_->RegisterHistogram("serve.similar_us");
  topic_card_latency_ = metrics_->RegisterHistogram("serve.topic_card_us");
  fold_admitted_ = metrics_->RegisterCounter("serve.fold_in.admitted");
  fold_shed_ = metrics_->RegisterCounter("serve.fold_in.shed");
  fold_deadline_expired_ =
      metrics_->RegisterCounter("serve.fold_in.deadline_expired");
  fold_completed_ = metrics_->RegisterCounter("serve.fold_in.completed");
  queries_completed_ = metrics_->RegisterCounter("serve.queries.completed");
}

QueryEngine::~QueryEngine() = default;

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const QueryEngineConfig& config,
    std::shared_ptr<const ServingSnapshot> snapshot,
    const recipe::Dataset* corpus) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("query engine: snapshot is null");
  }
  if (config.fold_in_sweeps < 1) {
    return Status::InvalidArgument("query engine: fold_in_sweeps must be >= 1");
  }
  if (config.alpha <= 0.0) {
    return Status::InvalidArgument("query engine: alpha must be positive");
  }
  if (config.cache_quantum <= 0.0) {
    return Status::InvalidArgument(
        "query engine: cache_quantum must be positive");
  }
  if (config.max_in_flight < 1) {
    return Status::InvalidArgument(
        "query engine: max_in_flight must be >= 1");
  }
  auto engine =
      std::unique_ptr<QueryEngine>(new QueryEngine(config, corpus));
  engine->state_ = BuildState(std::move(snapshot), corpus);
  return engine;
}

std::shared_ptr<const QueryEngine::ServingState> QueryEngine::state() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

std::shared_ptr<const QueryEngine::ServingState> QueryEngine::BuildState(
    std::shared_ptr<const ServingSnapshot> snapshot,
    const recipe::Dataset* corpus) {
  auto state = std::make_shared<ServingState>();
  state->docs = std::make_unique<DocStore>(snapshot->num_topics(),
                                           snapshot->embedding_view());
  if (corpus != nullptr) {
    // Remap each document's term bag into the snapshot's vocabulary via
    // surface forms: the corpus may have been indexed against a different
    // (or older) model, so corpus ids are not trusted to line up.
    std::vector<int32_t> remap(corpus->term_vocab.size(),
                               text::Vocabulary::kUnknownId);
    for (size_t v = 0; v < corpus->term_vocab.size(); ++v) {
      remap[v] =
          snapshot->WordId(corpus->term_vocab.WordOf(static_cast<int32_t>(v)));
    }
    for (const recipe::Document& doc : corpus->documents) {
      std::vector<int32_t> terms;
      terms.reserve(doc.term_ids.size());
      for (int32_t id : doc.term_ids) {
        if (id < 0 || static_cast<size_t>(id) >= remap.size()) continue;
        int32_t mapped = remap[static_cast<size_t>(id)];
        if (mapped != text::Vocabulary::kUnknownId) terms.push_back(mapped);
      }
      state->docs->AppendBase(state->docs->Prepare(
          snapshot->InferTopicForFeatures(doc.gel_feature),
          doc.emulsion_concentration, std::move(terms)));
    }
  }
  state->snapshot = std::move(snapshot);
  return state;
}

std::vector<int32_t> QueryEngine::ResolveTerms(
    const ServingSnapshot& snapshot, const std::vector<std::string>& terms) {
  std::vector<int32_t> ids;
  ids.reserve(terms.size());
  for (const std::string& term : terms) {
    int32_t id = snapshot.WordId(term);
    if (id == text::Vocabulary::kUnknownId) {
      unknown_terms_->Increment();
      continue;
    }
    ids.push_back(id);
  }
  return ids;
}

Status QueryEngine::CheckTermFreshness(
    const ServingSnapshot& snapshot, const std::vector<std::string>& terms) {
  if (terms.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(pending_mu_);
  if (pending_terms_.empty()) return Status::OK();
  for (const std::string& term : terms) {
    if (snapshot.WordId(term) != text::Vocabulary::kUnknownId) continue;
    if (pending_terms_.count(term) != 0) {
      stale_vocab_->Increment();
      return Status::FailedPrecondition(
          "texture term '" + term +
          "' is in the ingest pipeline but not yet in the served "
          "vocabulary; retry after the next model refresh");
    }
  }
  return Status::OK();
}

Status QueryEngine::ValidateQuery(const TextureQuery& query) const {
  if (!query.gel_concentration.empty() &&
      query.gel_concentration.size() != recipe::kNumGelTypes) {
    return Status::InvalidArgument("gel concentration must have dimension " +
                                   std::to_string(recipe::kNumGelTypes));
  }
  if (!query.emulsion_concentration.empty() &&
      query.emulsion_concentration.size() != recipe::kNumEmulsionTypes) {
    return Status::InvalidArgument(
        "emulsion concentration must have dimension " +
        std::to_string(recipe::kNumEmulsionTypes));
  }
  auto finite_ratios = [](const math::Vector& v) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (!std::isfinite(v[i]) || v[i] < 0.0 || v[i] > 1.0) return false;
    }
    return true;
  };
  if (!finite_ratios(query.gel_concentration) ||
      !finite_ratios(query.emulsion_concentration)) {
    return Status::InvalidArgument(
        "concentrations must be finite ratios in [0, 1]");
  }
  return Status::OK();
}

TexturePrediction QueryEngine::BuildPrediction(
    const ServingSnapshot& snapshot, std::vector<double> theta) const {
  TexturePrediction prediction;
  prediction.model_fingerprint = snapshot.fingerprint();
  prediction.topic = static_cast<int>(
      std::max_element(theta.begin(), theta.end()) - theta.begin());
  // Theta-weighted mixtures over topics: per-pole masses and term marginal.
  std::vector<double> mix(snapshot.vocab_size(), 0.0);
  for (size_t k = 0; k < theta.size(); ++k) {
    const CategoryMasses& m = snapshot.term_summary(static_cast<int>(k)).masses;
    double w = theta[k];
    prediction.categories.hard += w * m.hard;
    prediction.categories.soft += w * m.soft;
    prediction.categories.elastic += w * m.elastic;
    prediction.categories.crumbly += w * m.crumbly;
    prediction.categories.sticky += w * m.sticky;
    prediction.categories.dry += w * m.dry;
    prediction.categories.other += w * m.other;
    std::span<const double> row = snapshot.phi(static_cast<int>(k));
    for (size_t v = 0; v < mix.size(); ++v) mix[v] += w * row[v];
  }
  std::vector<size_t> order(mix.size());
  for (size_t v = 0; v < order.size(); ++v) order[v] = v;
  size_t keep = std::min<size_t>(static_cast<size_t>(config_.top_terms),
                                 order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(keep),
                    order.end(),
                    [&mix](size_t a, size_t b) { return mix[a] > mix[b]; });
  for (size_t i = 0; i < keep; ++i) {
    prediction.top_terms.emplace_back(std::string(snapshot.word(order[i])),
                                      mix[order[i]]);
  }
  prediction.theta = std::move(theta);
  return prediction;
}

StatusOr<std::vector<double>> QueryEngine::FoldIn(
    const ServingSnapshot& snapshot, const std::vector<int32_t>& term_ids,
    const math::Vector& gel_feature, Deadline deadline,
    obs::TraceSpan* admission) {
  // Taken before the admission checks, so a shed fold-in still uses up its
  // stream and every later answer keeps the stream it would have had.
  const uint64_t sequence = sequence_.fetch_add(1, std::memory_order_relaxed);
  // Dead on arrival: the request blew its budget before the fold-in (e.g.
  // a slow client took the whole budget just delivering the line).
  if (DeadlineExpired(deadline)) {
    fold_deadline_expired_->Increment();
    return Status::DeadlineExceeded(
        "request deadline expired before fold-in admission");
  }
  if (in_flight_.fetch_add(1) >= config_.max_in_flight) {
    in_flight_.fetch_sub(1);
    fold_shed_->Increment();
    return Status::Unavailable("fold-in capacity full (" +
                               std::to_string(config_.max_in_flight) +
                               " in flight); retry later");
  }
  fold_admitted_->Increment();
  uint64_t parent = 0;
  if (admission != nullptr) {
    admission->End();
    parent = admission->span_id();
  }
  obs::TraceSpan fold;
  if (config_.tracer != nullptr) {
    fold = config_.tracer->StartSpanWithParent("fold_in", parent);
  }
  Rng rng = Rng::ForStream(config_.seed, sequence);
  StatusOr<std::vector<double>> theta = snapshot.FoldInTheta(
      term_ids, gel_feature, config_.fold_in_sweeps, config_.alpha, rng);
  fold.End();
  in_flight_.fetch_sub(1);
  fold_completed_->Increment();
  return theta;
}

StatusOr<TexturePrediction> QueryEngine::PredictTexture(
    const TextureQuery& query, Deadline deadline, uint64_t trace_parent) {
  QueryScope scope(queries_accepted_, queries_completed_, predict_latency_);
  // Admission covers validation, term resolution, the cache probe and the
  // in-flight check; the fold_in span that follows parents to it.
  obs::TraceSpan admission;
  if (config_.tracer != nullptr) {
    admission =
        config_.tracer->StartSpanWithParent("admission", trace_parent);
  }
  TEXRHEO_RETURN_IF_ERROR(ValidateQuery(query));
  std::shared_ptr<const ServingState> state = this->state();
  const ServingSnapshot& snapshot = *state->snapshot;
  TEXRHEO_RETURN_IF_ERROR(
      CheckTermFreshness(snapshot, query.texture_terms));

  math::Vector gel =
      OrZeros(query.gel_concentration, recipe::kNumGelTypes);
  math::Vector emulsion =
      OrZeros(query.emulsion_concentration, recipe::kNumEmulsionTypes);
  std::vector<int32_t> term_ids =
      ResolveTerms(snapshot, query.texture_terms);

  std::string key =
      CanonicalQueryKey(gel, emulsion, term_ids, config_.cache_quantum);
  if (std::optional<TexturePrediction> hit = cache_.Get(key)) {
    cache_hits_->Increment();
    hit->from_cache = true;
    return *std::move(hit);
  }
  cache_misses_->Increment();

  StatusOr<std::vector<double>> theta =
      FoldIn(snapshot, term_ids, recipe::ToFeature(gel, config_.feature),
             deadline, &admission);
  // The caller has given up on an answer that comes back late; it is not
  // cached either, so the next ask folds in afresh.
  if (theta.ok() && DeadlineExpired(deadline)) {
    fold_deadline_expired_->Increment();
    theta = Status::DeadlineExceeded(
        "request deadline expired during the fold-in");
  }
  if (!theta.ok()) {
    errors_->Increment();
    return theta.status();
  }
  TexturePrediction prediction =
      BuildPrediction(snapshot, std::move(theta).value());
  cache_.Put(key, prediction);
  return prediction;
}

StatusOr<std::vector<RheologyMatch>> QueryEngine::NearestRheology(
    int topic, const core::LinkageOptions* options) {
  QueryScope scope(queries_accepted_, queries_completed_, nearest_latency_);
  std::shared_ptr<const ServingState> state = this->state();
  const ServingSnapshot& snapshot = *state->snapshot;
  if (topic < 0 || topic >= snapshot.num_topics()) {
    return Status::OutOfRange("topic index out of range");
  }
  const core::LinkageOptions& opts =
      options != nullptr ? *options : config_.linkage;
  const std::vector<rheology::EmpiricalSetting>& settings =
      rheology::TableI();
  auto links_or = core::LinkSettingsToTopics(snapshot.estimates(), settings,
                                             config_.feature, opts);
  if (!links_or.ok()) {
    errors_->Increment();
    return links_or.status();
  }
  std::vector<RheologyMatch> matches;
  matches.reserve(settings.size());
  for (size_t i = 0; i < settings.size(); ++i) {
    RheologyMatch match;
    match.setting_id = settings[i].id;
    match.source = settings[i].source;
    match.attributes = settings[i].attributes;
    match.divergence =
        (*links_or)[i].divergence_by_topic[static_cast<size_t>(topic)];
    matches.push_back(std::move(match));
  }
  std::sort(matches.begin(), matches.end(),
            [](const RheologyMatch& a, const RheologyMatch& b) {
              return a.divergence < b.divergence;
            });
  return matches;
}

StatusOr<SimilarRecipesResult> QueryEngine::SimilarRecipes(
    const TextureQuery& query, size_t top_n, Deadline deadline,
    uint64_t trace_parent, SimilarityMode mode) {
  QueryScope scope(queries_accepted_, queries_completed_, similar_latency_);
  similar_mode_[static_cast<size_t>(mode)]->Increment();
  TEXRHEO_RETURN_IF_ERROR(ValidateQuery(query));
  if (corpus_ == nullptr) {
    return Status::FailedPrecondition(
        "similar-recipes requires an indexed corpus (engine built without "
        "one)");
  }
  std::shared_ptr<const ServingState> state = this->state();
  const ServingSnapshot& snapshot = *state->snapshot;
  TEXRHEO_RETURN_IF_ERROR(
      CheckTermFreshness(snapshot, query.texture_terms));

  const bool needs_embeddings =
      mode == SimilarityMode::kEmbed || mode == SimilarityMode::kFused;
  if (needs_embeddings && !snapshot.has_embeddings()) {
    return Status::FailedPrecondition(
        std::string("similar-recipes mode=") + SimilarityModeName(mode) +
        " requires a model packed with ingredient embeddings (this snapshot "
        "has none)");
  }

  math::Vector gel = OrZeros(query.gel_concentration, recipe::kNumGelTypes);
  math::Vector emulsion =
      OrZeros(query.emulsion_concentration, recipe::kNumEmulsionTypes);
  std::vector<int32_t> term_ids = ResolveTerms(snapshot, query.texture_terms);
  std::sort(term_ids.begin(), term_ids.end());
  term_ids.erase(std::unique(term_ids.begin(), term_ids.end()),
                 term_ids.end());
  if (mode == SimilarityMode::kEmbed && term_ids.empty()) {
    return Status::InvalidArgument(
        "similar-recipes mode=embed needs at least one in-vocabulary "
        "texture term (terms=...) to build a query vector");
  }

  // Mode and size are part of the key (and the embedded PredictTexture has
  // its own mode-less cache): a kl answer can never satisfy a fused probe.
  std::string key = CanonicalQueryKey(gel, emulsion, term_ids,
                                      config_.cache_quantum,
                                      SimilarityModeName(mode));
  key += "|n:" + std::to_string(top_n);
  // The streamed delta changes what a ranking should return without any
  // reload; versioning the key retires stale entries instead of flushing.
  key += "|dg:" +
         std::to_string(delta_generation_.load(std::memory_order_acquire));
  if (std::optional<SimilarRecipesResult> hit = similar_cache_.Get(key)) {
    similar_cache_hits_->Increment();
    hit->from_cache = true;
    return *std::move(hit);
  }
  similar_cache_misses_->Increment();

  SimilarRecipesResult result;
  result.mode = mode;
  if (query.texture_terms.empty()) {
    // Feature-only query: place it by gel Gaussian (fast path, no fold-in).
    math::Vector gel_feature = recipe::ToFeature(gel, config_.feature);
    result.topic = snapshot.InferTopicForFeatures(gel_feature);
  } else {
    TEXRHEO_ASSIGN_OR_RETURN(TexturePrediction prediction,
                             PredictTexture(query, deadline, trace_parent));
    result.topic = prediction.topic;
  }

  // Every candidate of the topic, corpus and streamed alike, is scored by
  // the same distance against the same prepared query.
  const DocStore& docs = *state->docs;
  const SimilarDoc probe =
      docs.Prepare(result.topic, emulsion, std::move(term_ids));
  const std::vector<const SimilarDoc*> candidates =
      docs.Candidates(result.topic);
  std::vector<SimilarRecipe> ranking;
  switch (mode) {
    case SimilarityMode::kKl:
      ranking = Score(KlDistance, probe, candidates);
      break;
    case SimilarityMode::kEmbed:
      ranking = Score(CosineDistance, probe, candidates);
      break;
    case SimilarityMode::kLexical:
      ranking = Score(JaccardDistance, probe, candidates);
      break;
    case SimilarityMode::kFused: {
      // Weighted reciprocal-rank fusion: each backend ranks every candidate
      // in the one Nearer order, so each accumulates all three
      // contributions. With no usable terms the embed and lexical
      // perspectives carry no signal and fusion reduces to kl order.
      std::vector<double> score(candidates.size(), 0.0);
      auto accumulate = [&](DocDistance distance, double weight) {
        const std::vector<SimilarRecipe> backend =
            Score(distance, probe, candidates);
        std::vector<size_t> order(backend.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(), [&backend](size_t a, size_t b) {
          return Nearer(backend[a], backend[b]);
        });
        for (size_t r = 0; r < order.size(); ++r) {
          score[order[r]] +=
              weight / (config_.fusion_rrf_k + static_cast<double>(r + 1));
        }
      };
      accumulate(KlDistance, config_.fusion_kl_weight);
      if (!probe.terms.empty()) {
        accumulate(CosineDistance, config_.fusion_embed_weight);
        accumulate(JaccardDistance, config_.fusion_lexical_weight);
      }
      // Negated so "ascending divergence = nearest first" holds for fused
      // results too.
      ranking.reserve(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        ranking.push_back(
            SimilarRecipe{candidates[i]->recipe_index, -score[i]});
      }
      break;
    }
  }
  KeepNearest(ranking, top_n == 0 ? config_.max_similar : top_n);
  result.recipes = std::move(ranking);
  similar_cache_.Put(key, result);
  return result;
}

StatusOr<TopicCardResult> QueryEngine::TopicCard(int topic) {
  QueryScope scope(queries_accepted_, queries_completed_,
                   topic_card_latency_);
  std::shared_ptr<const ServingState> state = this->state();
  const ServingSnapshot& snapshot = *state->snapshot;
  if (topic < 0 || topic >= snapshot.num_topics()) {
    return Status::OutOfRange("topic index out of range");
  }
  const core::TopicEstimates& est = snapshot.estimates();
  const TopicTermSummary& summary = snapshot.term_summary(topic);
  TopicCardResult card;
  card.topic = topic;
  if (!est.topic_recipe_count.empty()) {
    card.recipe_count = est.topic_recipe_count[static_cast<size_t>(topic)];
  }
  card.top_terms = summary.top_terms;
  if (card.top_terms.size() > static_cast<size_t>(config_.top_terms)) {
    card.top_terms.resize(static_cast<size_t>(config_.top_terms));
  }
  card.categories = summary.masses;
  card.gel_mean_concentration = recipe::FromFeature(
      est.gel_topics[static_cast<size_t>(topic)].mean(), config_.feature);
  card.emulsion_mean_concentration = recipe::FromFeature(
      est.emulsion_topics[static_cast<size_t>(topic)].mean(),
      config_.feature);
  return card;
}

StatusOr<int> QueryEngine::FoldInDelta(const TextureQuery& query,
                                       uint64_t ingest_sequence,
                                       Deadline deadline) {
  // Deliberately not a QueryScope: fold-ins are pipeline work, not client
  // queries, and the ingest layer keeps its own accepted/folded counters.
  TEXRHEO_RETURN_IF_ERROR(ValidateQuery(query));
  std::shared_ptr<const ServingState> state = this->state();
  const ServingSnapshot& snapshot = *state->snapshot;
  // An Ingest racing a Refresh can fold one record twice against the same
  // state; the delta keeps it once.
  if (std::optional<int> resident = state->docs->DeltaTopic(ingest_sequence)) {
    return *resident;
  }

  math::Vector gel = OrZeros(query.gel_concentration, recipe::kNumGelTypes);
  math::Vector emulsion =
      OrZeros(query.emulsion_concentration, recipe::kNumEmulsionTypes);
  // Terms outside the served vocabulary are dropped here; the ingest layer
  // separately registers them via NotePendingTerms so queries naming them
  // fail clean until the next refresh absorbs them.
  std::vector<int32_t> term_ids = ResolveTerms(snapshot, query.texture_terms);

  StatusOr<std::vector<double>> theta =
      FoldIn(snapshot, term_ids, recipe::ToFeature(gel, config_.feature),
             deadline, /*admission=*/nullptr);
  if (!theta.ok()) {
    errors_->Increment();
    return theta.status();
  }
  const int topic = static_cast<int>(
      std::max_element(theta->begin(), theta->end()) - theta->begin());
  // Appended to the state the ids were resolved against: a Reload since
  // then published a new state whose delta this record never enters.
  if (std::optional<int> resident = state->docs->AppendDelta(
          ingest_sequence,
          state->docs->Prepare(topic, emulsion, std::move(term_ids)))) {
    return *resident;
  }
  delta_folded_->Increment();
  delta_generation_.fetch_add(1, std::memory_order_acq_rel);
  return topic;
}

void QueryEngine::NotePendingTerms(const std::vector<std::string>& terms) {
  if (terms.empty()) return;
  std::shared_ptr<const ServingState> state = this->state();
  const ServingSnapshot& snapshot = *state->snapshot;
  std::lock_guard<std::mutex> lock(pending_mu_);
  for (const std::string& term : terms) {
    if (snapshot.WordId(term) == text::Vocabulary::kUnknownId) {
      pending_terms_.insert(term);
    }
  }
}

DeltaStats QueryEngine::GetDeltaStats() const {
  DeltaStats stats;
  stats.folded = delta_folded_->Value();
  stats.stale_vocab_queries = stale_vocab_->Value();
  stats.delta_generation = delta_generation_.load(std::memory_order_acquire);
  stats.delta_docs = state()->docs->delta_size();
  std::lock_guard<std::mutex> lock(pending_mu_);
  stats.pending_terms = pending_terms_.size();
  return stats;
}

std::string QueryEngine::RenderIngestz() const {
  DeltaStats stats = GetDeltaStats();
  std::shared_ptr<const ServingSnapshot> snapshot = this->snapshot();
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", snapshot->fingerprint());
  std::ostringstream out;
  out << "texrheo_serve ingestz\n";
  out << "model: fingerprint=" << fp << "\n";
  out << "delta: docs=" << stats.delta_docs << " folded=" << stats.folded
      << " generation=" << stats.delta_generation << "\n";
  out << "vocab: pending_terms=" << stats.pending_terms
      << " stale_vocab_queries=" << stats.stale_vocab_queries << "\n";
  return out.str();
}

Status QueryEngine::Reload(std::shared_ptr<const ServingSnapshot> snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("reload: snapshot is null");
  }
  std::shared_ptr<const ServingState> fresh =
      BuildState(std::move(snapshot), corpus_);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    state_ = std::move(fresh);
  }
  // Flush *after* publishing, so no query that starts from here on can
  // read a result of the old model. A query still in flight on the old
  // state can Put its result after this flush; that entry carries the old
  // fingerprint and lives until evicted or the next reload, so readers
  // that must not mix models compare fingerprints.
  cache_.Clear();
  similar_cache_.Clear();
  // The new state starts with an empty delta: the refreshed model has
  // absorbed the streamed recipes (the ingest layer re-folds any the
  // refresh did not cover). Pending terms now present in the new
  // vocabulary resolve and stop failing queries.
  {
    std::shared_ptr<const ServingState> current = this->state();
    const ServingSnapshot& snap = *current->snapshot;
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (auto it = pending_terms_.begin(); it != pending_terms_.end();) {
      if (snap.WordId(*it) != text::Vocabulary::kUnknownId) {
        it = pending_terms_.erase(it);
      } else {
        ++it;
      }
    }
  }
  delta_generation_.fetch_add(1, std::memory_order_acq_rel);
  reloads_->Increment();
  return Status::OK();
}

Status QueryEngine::ReloadFromFile(const std::string& path) {
  TEXRHEO_ASSIGN_OR_RETURN(std::shared_ptr<const ServingSnapshot> snapshot,
                           ServingSnapshot::FromFile(path));
  return Reload(std::move(snapshot));
}

std::shared_ptr<const ServingSnapshot> QueryEngine::snapshot() const {
  return state()->snapshot;
}

QueryEngineStats QueryEngine::GetStats() const {
  QueryEngineStats stats;
  stats.predict = predict_latency_->TakeSnapshot();
  stats.nearest = nearest_latency_->TakeSnapshot();
  stats.similar = similar_latency_->TakeSnapshot();
  stats.topic_card = topic_card_latency_->TakeSnapshot();
  stats.cache = cache_.Stats();
  stats.batcher.admitted = fold_admitted_->Value();
  stats.batcher.shed = fold_shed_->Value();
  stats.batcher.deadline_expired = fold_deadline_expired_->Value();
  stats.batcher.jobs_processed = fold_completed_->Value();
  stats.batcher.batches = stats.batcher.jobs_processed;
  stats.reloads = reloads_->Value();
  stats.errors = errors_->Value();
  stats.unknown_terms = unknown_terms_->Value();
  stats.model_fingerprint = state()->snapshot->fingerprint();
  return stats;
}

void QueryEngine::RefreshDerivedGauges() const {
  // The LRU cache keeps its own internal tallies (it predates the
  // registry and its occupancy is not an event stream); mirror them into
  // gauges right before a snapshot so renders always see current values.
  LruCacheStats cache = cache_.Stats();
  cache_size_->Set(static_cast<double>(cache.size));
  cache_capacity_->Set(static_cast<double>(cache.capacity));
  cache_evictions_->Set(static_cast<double>(cache.evictions));
  cache_insertions_->Set(static_cast<double>(cache.insertions));
  delta_docs_gauge_->Set(static_cast<double>(state()->docs->delta_size()));
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_terms_gauge_->Set(static_cast<double>(pending_terms_.size()));
  }
}

obs::MetricsSnapshot QueryEngine::TakeMetricsSnapshot() const {
  RefreshDerivedGauges();
  return metrics_->TakeSnapshot();
}

std::string QueryEngine::RenderStatsz(const obs::MetricsSnapshot& snap) const {
  std::shared_ptr<const ServingSnapshot> snapshot = this->snapshot();
  std::ostringstream out;
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", snapshot->fingerprint());
  out << "texrheo_serve statsz\n";
  out << "model: fingerprint=" << fp << " topics=" << snapshot->num_topics()
      << " vocab=" << snapshot->vocab_size()
      << " source=" << snapshot->source()
      << " reloads=" << snap.CounterValue("serve.reloads") << "\n";
  const uint64_t hits = snap.CounterValue("serve.cache.hits");
  const uint64_t misses = snap.CounterValue("serve.cache.misses");
  out << "cache: capacity="
      << static_cast<uint64_t>(snap.GaugeValue("serve.cache.capacity"))
      << " size=" << static_cast<uint64_t>(snap.GaugeValue("serve.cache.size"))
      << " hits=" << hits << " misses=" << misses << " evictions="
      << static_cast<uint64_t>(snap.GaugeValue("serve.cache.evictions"))
      << " hit_rate=";
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f",
                hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) /
                          static_cast<double>(hits + misses));
  out << rate << "\n";
  out << "fold_in: admitted=" << snap.CounterValue("serve.fold_in.admitted")
      << " shed=" << snap.CounterValue("serve.fold_in.shed")
      << " deadline_expired="
      << snap.CounterValue("serve.fold_in.deadline_expired")
      << " completed=" << snap.CounterValue("serve.fold_in.completed")
      << "\n";
  out << "queries: accepted=" << snap.CounterValue("serve.queries.accepted")
      << " completed=" << snap.CounterValue("serve.queries.completed")
      << "\n";
  out << "errors: total=" << snap.CounterValue("serve.errors")
      << " unknown_terms=" << snap.CounterValue("serve.unknown_terms")
      << "\n";
  auto line = [&out, &snap](const char* label, const char* metric) {
    static const LatencyHistogram::Snapshot kEmpty;
    const LatencyHistogram::Snapshot* h = snap.Histogram(metric);
    if (h == nullptr) h = &kEmpty;
    out << label << ": count=" << h->count << " mean_us=";
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.1f", h->MeanMicros());
    out << mean << " p50_us=" << h->QuantileUpperBound(0.50)
        << " p95_us=" << h->QuantileUpperBound(0.95)
        << " p99_us=" << h->QuantileUpperBound(0.99)
        << " max_us=" << h->max_micros << "\n";
  };
  line("predict_texture", "serve.predict_us");
  line("nearest_rheology", "serve.nearest_us");
  line("similar_recipes", "serve.similar_us");
  line("topic_card", "serve.topic_card_us");
  return out.str();
}

std::string QueryEngine::Statsz() const {
  return RenderStatsz(TakeMetricsSnapshot());
}

std::string QueryEngine::MetricszJson() const {
  obs::MetricsSnapshot snap = TakeMetricsSnapshot();
  std::shared_ptr<const ServingSnapshot> snapshot = this->snapshot();
  JsonValue root = snap.ToJson();
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", snapshot->fingerprint());
  JsonValue model = JsonValue::MakeObject();
  model.AsObject()["fingerprint"] = JsonValue::String(fp);
  model.AsObject()["topics"] =
      JsonValue::Number(static_cast<double>(snapshot->num_topics()));
  model.AsObject()["vocab"] =
      JsonValue::Number(static_cast<double>(snapshot->vocab_size()));
  model.AsObject()["source"] = JsonValue::String(snapshot->source());
  root.AsObject()["model"] = std::move(model);
  return root.Serialize();
}

}  // namespace texrheo::serve
