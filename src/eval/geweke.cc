#include "eval/geweke.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "core/collapsed_sampler.h"
#include "math/running_stats.h"
#include "util/rng.h"

namespace texrheo::eval {
namespace {

using core::CollapsedJointTopicModel;
using core::JointTopicModel;
using core::JointTopicModelConfig;
using recipe::Dataset;
using recipe::Document;

size_t SampleCategorical(Rng& rng, const math::Vector& probs) {
  return rng.NextCategorical(probs.data());
}

/// Skeleton dataset with the harness geometry: every document has
/// tokens_per_doc tokens and a gel feature of the prior's dimension. Token
/// ids and features are overwritten by forward/successive sampling.
Dataset SkeletonDataset(const GewekeConfig& cfg) {
  Dataset ds;
  for (size_t v = 0; v < cfg.vocab_size; ++v) {
    ds.term_vocab.Add("t" + std::to_string(v));
  }
  size_t gel_dim = cfg.gel_prior.dim();
  for (size_t d = 0; d < cfg.num_docs; ++d) {
    Document doc;
    doc.recipe_index = d;
    doc.term_ids.assign(cfg.tokens_per_doc, 0);
    doc.gel_feature = math::Vector(gel_dim, 0.0);
    // Emulsion features are not part of the tested joint
    // (use_emulsion_likelihood = false) and stay constant.
    doc.emulsion_feature = math::Vector(1, 0.0);
    doc.gel_concentration = math::Vector(gel_dim, 0.01);
    doc.emulsion_concentration = math::Vector(1, 0.1);
    ds.documents.push_back(std::move(doc));
  }
  return ds;
}

/// One draw of (theta, phi, Gaussians, z, y, data) from the prior — the
/// marginal-conditional side of the Geweke test.
texrheo::Status ForwardSampleInto(const GewekeConfig& cfg, Rng& rng,
                                  Dataset& ds,
                                  std::vector<std::vector<int>>& z,
                                  std::vector<int>& y) {
  size_t k_count = static_cast<size_t>(cfg.num_topics);
  std::vector<math::Vector> phi;
  phi.reserve(k_count);
  std::vector<math::Gaussian> gaussians;
  gaussians.reserve(k_count);
  for (size_t k = 0; k < k_count; ++k) {
    phi.push_back(math::DirichletSample(rng, cfg.vocab_size, cfg.gamma));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g,
                             math::NormalWishartSample(rng, cfg.gel_prior));
    gaussians.push_back(std::move(g));
  }
  z.assign(ds.documents.size(), {});
  y.assign(ds.documents.size(), 0);
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    math::Vector theta =
        math::DirichletSample(rng, k_count, cfg.alpha);
    Document& doc = ds.documents[d];
    z[d].resize(doc.term_ids.size());
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      size_t k = SampleCategorical(rng, theta);
      z[d][n] = static_cast<int>(k);
      doc.term_ids[n] =
          static_cast<int32_t>(SampleCategorical(rng, phi[k]));
    }
    size_t yk = SampleCategorical(rng, theta);
    y[d] = static_cast<int>(yk);
    doc.gel_feature = gaussians[yk].Sample(rng);
  }
  return Status::OK();
}

/// Test statistics over the joint state. Functions of (z, y, data) so the
/// forward and successive sides compute exactly the same quantities.
std::vector<double> JointStatistics(const Dataset& ds,
                                    const std::vector<std::vector<int>>& z,
                                    const std::vector<int>& y) {
  double g_mean = 0.0, g_second = 0.0;
  double term0 = 0.0, z_eq_y = 0.0, tokens = 0.0;
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    const Document& doc = ds.documents[d];
    double g = doc.gel_feature[0];
    g_mean += g;
    g_second += g * g;
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      tokens += 1.0;
      if (doc.term_ids[n] == 0) term0 += 1.0;
      if (z[d][n] == y[d]) z_eq_y += 1.0;
    }
  }
  double d_count = static_cast<double>(ds.documents.size());
  return {g_mean / d_count, g_second / d_count, term0 / tokens,
          z_eq_y / tokens};
}

const char* kStatisticNames[] = {"mean gel", "mean gel^2", "freq(term 0)",
                                 "frac z == y"};

/// The successive-conditional data step: resample every observable from its
/// exact conditional given the latent assignments. Words come from the
/// collapsed Dirichlet-multinomial predictive (sequential scan); gel
/// features from a fresh Normal-Wishart posterior draw of each topic's
/// Gaussian (a valid auxiliary-variable step for both samplers).
texrheo::Status ResampleDataGivenLatents(
    const GewekeConfig& cfg, Rng& rng,
    const std::vector<std::vector<int>>& z, const std::vector<int>& y,
    Dataset& ds) {
  size_t k_count = static_cast<size_t>(cfg.num_topics);
  // Token step.
  std::vector<std::vector<double>> n_kv(
      k_count, std::vector<double>(cfg.vocab_size, 0.0));
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    for (size_t n = 0; n < ds.documents[d].term_ids.size(); ++n) {
      ++n_kv[static_cast<size_t>(z[d][n])]
            [static_cast<size_t>(ds.documents[d].term_ids[n])];
    }
  }
  std::vector<double> weights(cfg.vocab_size);
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    Document& doc = ds.documents[d];
    for (size_t n = 0; n < doc.term_ids.size(); ++n) {
      size_t k = static_cast<size_t>(z[d][n]);
      size_t v_old = static_cast<size_t>(doc.term_ids[n]);
      --n_kv[k][v_old];
      for (size_t v = 0; v < cfg.vocab_size; ++v) {
        weights[v] = n_kv[k][v] + cfg.gamma;
      }
      size_t v_new = rng.NextCategorical(weights);
      doc.term_ids[n] = static_cast<int32_t>(v_new);
      ++n_kv[k][v_new];
    }
  }
  // Feature step.
  size_t gel_dim = cfg.gel_prior.dim();
  std::vector<math::Gaussian> gaussians;
  gaussians.reserve(k_count);
  for (size_t k = 0; k < k_count; ++k) {
    math::RunningMoments moments(gel_dim);
    for (size_t d = 0; d < ds.documents.size(); ++d) {
      if (static_cast<size_t>(y[d]) == k) {
        moments.Add(ds.documents[d].gel_feature);
      }
    }
    TEXRHEO_ASSIGN_OR_RETURN(
        math::NormalWishartParams post,
        cfg.gel_prior.Posterior(moments.count(), moments.Mean(),
                                moments.Scatter()));
    TEXRHEO_ASSIGN_OR_RETURN(math::Gaussian g,
                             math::NormalWishartSample(rng, post));
    gaussians.push_back(std::move(g));
  }
  for (size_t d = 0; d < ds.documents.size(); ++d) {
    ds.documents[d].gel_feature =
        gaussians[static_cast<size_t>(y[d])].Sample(rng);
  }
  return Status::OK();
}

struct SeriesStats {
  double mean = 0.0;
  double variance = 0.0;
  double effective_n = 0.0;
};

/// Mean/variance with a lag-1 autocorrelation effective-sample-size
/// correction (the successive-conditional draws are a Markov chain even
/// after thinning).
SeriesStats Summarize(const std::vector<double>& xs) {
  SeriesStats s;
  double n = static_cast<double>(xs.size());
  if (xs.empty()) return s;
  for (double x : xs) s.mean += x;
  s.mean /= n;
  double c0 = 0.0, c1 = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    c0 += (xs[i] - s.mean) * (xs[i] - s.mean);
    if (i + 1 < xs.size()) {
      c1 += (xs[i] - s.mean) * (xs[i + 1] - s.mean);
    }
  }
  s.variance = c0 / std::max(n - 1.0, 1.0);
  double rho = c0 > 0.0 ? std::clamp(c1 / c0, 0.0, 0.99) : 0.0;
  s.effective_n = n * (1.0 - rho) / (1.0 + rho);
  return s;
}

JointTopicModelConfig HarnessModelConfig(const GewekeConfig& cfg,
                                         uint64_t seed) {
  JointTopicModelConfig model;
  model.num_topics = cfg.num_topics;
  model.alpha = cfg.alpha;
  model.gamma = cfg.gamma;
  model.auto_prior = false;
  model.gel_prior = cfg.gel_prior;
  // The emulsion Gaussian is outside the tested joint (flag below is off)
  // but the model still validates and tracks it; any valid prior works.
  model.emulsion_prior = cfg.gel_prior;
  model.use_emulsion_likelihood = false;
  model.num_threads = 1;
  model.seed = seed;
  return model;
}

math::NormalWishartParams DefaultGelPrior() {
  math::NormalWishartParams nw;
  nw.mu0 = math::Vector(1, 0.0);
  nw.beta = 1.0;
  nw.nu = 3.0;
  nw.scale = math::Matrix::Identity(1, 0.5);
  return nw;
}

}  // namespace

texrheo::StatusOr<GewekeResult> RunGewekeTest(const GewekeConfig& config) {
  GewekeConfig cfg = config;
  if (cfg.gel_prior.dim() == 0) cfg.gel_prior = DefaultGelPrior();
  if (cfg.gel_prior.dim() != 1) {
    // The emulsion skeleton and the `mean gel` statistics read coordinate 0;
    // multivariate priors would silently test less than they claim.
    return Status::InvalidArgument("geweke: gel prior must be 1-D");
  }
  TEXRHEO_RETURN_IF_ERROR(cfg.gel_prior.Validate());
  if (cfg.num_topics < 1 || cfg.vocab_size < 2 || cfg.num_docs < 1 ||
      cfg.tokens_per_doc < 1) {
    return Status::InvalidArgument("geweke: degenerate model geometry");
  }
  if (cfg.forward_samples < 2 || cfg.gibbs_samples < 2 || cfg.thin < 1 ||
      cfg.burn_in < 0) {
    return Status::InvalidArgument("geweke: degenerate sample schedule");
  }

  size_t num_stats = std::size(kStatisticNames);

  // Marginal-conditional side: independent forward replicates.
  Rng forward_rng = Rng::ForStream(cfg.seed, 1);
  Dataset forward_ds = SkeletonDataset(cfg);
  std::vector<std::vector<int>> z;
  std::vector<int> y;
  std::vector<std::vector<double>> forward_series(num_stats);
  for (int r = 0; r < cfg.forward_samples; ++r) {
    TEXRHEO_RETURN_IF_ERROR(ForwardSampleInto(cfg, forward_rng, forward_ds,
                                              z, y));
    std::vector<double> stats = JointStatistics(forward_ds, z, y);
    for (size_t i = 0; i < num_stats; ++i) {
      forward_series[i].push_back(stats[i]);
    }
  }

  // Successive-conditional side: production Gibbs transition over latents,
  // harness data step, model resync.
  Rng data_rng = Rng::ForStream(cfg.seed, 2);
  Dataset gibbs_ds = SkeletonDataset(cfg);
  // Start the chain from a forward draw so it begins at stationarity when
  // the sampler is correct (burn_in then only mops up an incorrect start).
  TEXRHEO_RETURN_IF_ERROR(ForwardSampleInto(cfg, data_rng, gibbs_ds, z, y));
  JointTopicModelConfig model_config =
      HarnessModelConfig(cfg, Rng::StreamSeed(cfg.seed, 3));

  std::vector<std::vector<double>> gibbs_series(num_stats);
  auto run_chain = [&](auto& model) -> texrheo::Status {
    int iterations = cfg.burn_in + cfg.gibbs_samples * cfg.thin;
    for (int it = 0; it < iterations; ++it) {
      TEXRHEO_RETURN_IF_ERROR(model.RunSweeps(1));
      TEXRHEO_RETURN_IF_ERROR(ResampleDataGivenLatents(
          cfg, data_rng, model.z(), model.y(), gibbs_ds));
      TEXRHEO_RETURN_IF_ERROR(model.ResyncWithData());
      if (it >= cfg.burn_in && (it - cfg.burn_in) % cfg.thin == 0) {
        std::vector<double> stats =
            JointStatistics(gibbs_ds, model.z(), model.y());
        for (size_t i = 0; i < num_stats; ++i) {
          gibbs_series[i].push_back(stats[i]);
        }
      }
    }
    return Status::OK();
  };
  if (cfg.sampler == SamplerKind::kInstantiated) {
    TEXRHEO_ASSIGN_OR_RETURN(
        JointTopicModel model,
        JointTopicModel::Create(model_config, &gibbs_ds));
    TEXRHEO_RETURN_IF_ERROR(run_chain(model));
  } else {
    TEXRHEO_ASSIGN_OR_RETURN(
        CollapsedJointTopicModel model,
        CollapsedJointTopicModel::Create(model_config, &gibbs_ds));
    TEXRHEO_RETURN_IF_ERROR(run_chain(model));
  }

  GewekeResult result;
  for (size_t i = 0; i < num_stats; ++i) {
    SeriesStats f = Summarize(forward_series[i]);
    SeriesStats g = Summarize(gibbs_series[i]);
    double se = std::sqrt(f.variance / std::max(f.effective_n, 1.0) +
                          g.variance / std::max(g.effective_n, 1.0));
    double zscore = se > 0.0 ? (f.mean - g.mean) / se : 0.0;
    result.statistic_names.push_back(kStatisticNames[i]);
    result.forward_mean.push_back(f.mean);
    result.gibbs_mean.push_back(g.mean);
    result.z_scores.push_back(zscore);
    result.max_abs_z = std::max(result.max_abs_z, std::abs(zscore));
  }
  return result;
}

namespace {

/// Posterior-moment accumulator shared by the serial and parallel runs.
struct MomentAccumulator {
  std::vector<std::vector<double>> phi;   // [k][v]
  std::vector<double> topic_share;        // [k]
  std::vector<math::Vector> gel_mean;     // [k]
  int samples = 0;

  MomentAccumulator(int k, size_t v, size_t gel_dim)
      : phi(static_cast<size_t>(k), std::vector<double>(v, 0.0)),
        topic_share(static_cast<size_t>(k), 0.0),
        gel_mean(static_cast<size_t>(k), math::Vector(gel_dim, 0.0)) {}

  void Add(const core::TopicEstimates& est) {
    for (size_t k = 0; k < phi.size(); ++k) {
      for (size_t v = 0; v < phi[k].size(); ++v) phi[k][v] += est.phi[k][v];
      gel_mean[k] += est.gel_topics[k].mean();
      for (size_t d = 0; d < est.theta.size(); ++d) {
        topic_share[k] += est.theta[d][k] /
                          static_cast<double>(est.theta.size());
      }
    }
    ++samples;
  }

  void Finalize() {
    double n = static_cast<double>(std::max(samples, 1));
    for (auto& row : phi) {
      for (double& x : row) x /= n;
    }
    for (double& x : topic_share) x /= n;
    for (auto& m : gel_mean) m *= 1.0 / n;
  }
};

template <typename Model>
texrheo::Status AccumulateMoments(Model& model, int burn_in, int measure,
                                  MomentAccumulator& acc) {
  TEXRHEO_RETURN_IF_ERROR(model.RunSweeps(burn_in));
  for (int s = 0; s < measure; ++s) {
    TEXRHEO_RETURN_IF_ERROR(model.RunSweeps(1));
    if constexpr (std::is_same_v<Model, CollapsedJointTopicModel>) {
      TEXRHEO_ASSIGN_OR_RETURN(core::TopicEstimates est, model.Estimate());
      acc.Add(est);
    } else {
      acc.Add(model.Estimate());
    }
  }
  acc.Finalize();
  return Status::OK();
}

texrheo::Status RunMoments(const JointTopicModelConfig& config,
                           const Dataset& dataset, SamplerKind sampler,
                           int burn_in, int measure, MomentAccumulator& acc) {
  if (sampler == SamplerKind::kInstantiated) {
    TEXRHEO_ASSIGN_OR_RETURN(JointTopicModel model,
                             JointTopicModel::Create(config, &dataset));
    return AccumulateMoments(model, burn_in, measure, acc);
  }
  TEXRHEO_ASSIGN_OR_RETURN(CollapsedJointTopicModel model,
                           CollapsedJointTopicModel::Create(config, &dataset));
  return AccumulateMoments(model, burn_in, measure, acc);
}

/// Trains one chain per config on `dataset` and reports the aligned
/// posterior-moment differences between them. The configs differ only in
/// trajectory-shaping knobs, so they share num_topics (<= 8: alignment
/// enumerates topic permutations).
texrheo::StatusOr<MomentEquivalenceResult> CompareConfigsMoments(
    const core::JointTopicModelConfig& config_a,
    const core::JointTopicModelConfig& config_b,
    const recipe::Dataset& dataset, SamplerKind sampler, int burn_in_sweeps,
    int measure_sweeps) {
  if (config_a.num_topics > 8) {
    return Status::InvalidArgument(
        "moment equivalence: topic alignment enumerates permutations; "
        "num_topics must be <= 8");
  }
  if (dataset.documents.empty()) {
    return Status::InvalidArgument("moment equivalence: empty dataset");
  }
  size_t gel_dim = dataset.documents.front().gel_feature.size();
  size_t k_count = static_cast<size_t>(config_a.num_topics);

  MomentAccumulator serial_acc(config_a.num_topics,
                               dataset.term_vocab.size(), gel_dim);
  MomentAccumulator parallel_acc(config_a.num_topics,
                                 dataset.term_vocab.size(), gel_dim);
  TEXRHEO_RETURN_IF_ERROR(RunMoments(config_a, dataset, sampler,
                                     burn_in_sweeps, measure_sweeps,
                                     serial_acc));
  TEXRHEO_RETURN_IF_ERROR(RunMoments(config_b, dataset, sampler,
                                     burn_in_sweeps, measure_sweeps,
                                     parallel_acc));

  // Align the second run's topics to the first run's: pick the
  // permutation minimizing total L1 distance between mean phi rows.
  std::vector<size_t> perm(k_count);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<size_t> best_perm = perm;
  double best_cost = std::numeric_limits<double>::infinity();
  do {
    double cost = 0.0;
    for (size_t k = 0; k < k_count; ++k) {
      for (size_t v = 0; v < serial_acc.phi[k].size(); ++v) {
        cost += std::abs(serial_acc.phi[k][v] - parallel_acc.phi[perm[k]][v]);
      }
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_perm = perm;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  MomentEquivalenceResult result;
  for (size_t k = 0; k < k_count; ++k) {
    size_t pk = best_perm[k];
    for (size_t v = 0; v < serial_acc.phi[k].size(); ++v) {
      result.phi_max_abs_diff =
          std::max(result.phi_max_abs_diff,
                   std::abs(serial_acc.phi[k][v] - parallel_acc.phi[pk][v]));
    }
    result.topic_share_max_abs_diff = std::max(
        result.topic_share_max_abs_diff,
        std::abs(serial_acc.topic_share[k] - parallel_acc.topic_share[pk]));
    for (size_t i = 0; i < gel_dim; ++i) {
      result.gel_mean_max_abs_diff =
          std::max(result.gel_mean_max_abs_diff,
                   std::abs(serial_acc.gel_mean[k][i] -
                            parallel_acc.gel_mean[pk][i]));
    }
  }
  return result;
}

}  // namespace

texrheo::StatusOr<MomentEquivalenceResult> CompareSerialVsParallelMoments(
    const core::JointTopicModelConfig& base_config,
    const recipe::Dataset& dataset, SamplerKind sampler, int parallel_threads,
    int burn_in_sweeps, int measure_sweeps) {
  if (parallel_threads < 2) {
    return Status::InvalidArgument(
        "moment equivalence: parallel_threads must be >= 2");
  }
  JointTopicModelConfig serial_config = base_config;
  serial_config.num_threads = 1;
  JointTopicModelConfig parallel_config = base_config;
  parallel_config.num_threads = parallel_threads;
  return CompareConfigsMoments(serial_config, parallel_config, dataset,
                               sampler, burn_in_sweeps, measure_sweeps);
}

}  // namespace texrheo::eval
