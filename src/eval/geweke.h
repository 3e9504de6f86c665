#ifndef TEXRHEO_EVAL_GEWEKE_H_
#define TEXRHEO_EVAL_GEWEKE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/joint_topic_model.h"
#include "math/distributions.h"
#include "recipe/dataset.h"
#include "util/status.h"

namespace texrheo::eval {

/// Statistical sampler-correctness harness for the joint topic model's Gibbs
/// samplers. Two independent checks:
///
///  1. RunGewekeTest — a Geweke (2004) joint-distribution test. The same
///     joint p(latents, data) is sampled two ways: "marginal-conditional"
///     (latents from the prior, data forward-simulated once, independent
///     replicates) and "successive-conditional" (alternating the production
///     Gibbs transition over latents with an exact data-resampling step the
///     harness performs). If the sampler implements its conditionals
///     correctly, both chains target the same distribution and every test
///     statistic's two means agree up to Monte Carlo noise — quantified as
///     z-scores. Implementation or derivation bugs show up as |z| far above
///     the N(0,1) range.
///
///  2. CompareSerialVsParallelMoments — posterior-moment equivalence of the
///     serial chain (num_threads = 1) and the parallel AD-LDA style chain on
///     a fixed dataset: post-burn-in averages of phi, corpus-level topic
///     shares, and the per-topic gel posterior means must match within
///     statistical tolerance after alignment over topic permutations (the
///     chains mix to the same posterior only up to topic relabeling).

/// Which production sampler the harness drives.
enum class SamplerKind {
  kInstantiated,  ///< JointTopicModel (paper eq. 4, Gaussians instantiated).
  kCollapsed,     ///< CollapsedJointTopicModel (Rao-Blackwellized).
};

struct GewekeConfig {
  SamplerKind sampler = SamplerKind::kInstantiated;

  /// Model size. Kept tiny on purpose: Geweke power comes from many
  /// replicates of a small model, not from a big corpus.
  int num_topics = 2;
  size_t vocab_size = 3;
  size_t num_docs = 5;
  size_t tokens_per_doc = 4;
  double alpha = 0.8;
  double gamma = 0.6;
  /// Normal-Wishart prior on the per-topic gel Gaussian. Defaults (set by
  /// RunGewekeTest when left empty) to a vague 1-D prior.
  math::NormalWishartParams gel_prior;

  /// Marginal-conditional side: independent forward replicates.
  int forward_samples = 2000;
  /// Successive-conditional side: recorded samples, spaced `thin` Gibbs
  /// iterations apart after `burn_in` iterations.
  int gibbs_samples = 2000;
  int thin = 6;
  int burn_in = 300;

  uint64_t seed = 20220501;
};

struct GewekeResult {
  std::vector<std::string> statistic_names;
  std::vector<double> forward_mean;
  std::vector<double> gibbs_mean;
  /// Per-statistic z-scores; approximately N(0,1) for a correct sampler.
  /// The Gibbs side's variance is inflated by a lag-1 autocorrelation
  /// effective-sample-size correction.
  std::vector<double> z_scores;
  double max_abs_z = 0.0;
};

texrheo::StatusOr<GewekeResult> RunGewekeTest(const GewekeConfig& config);

struct MomentEquivalenceResult {
  /// Max abs difference between serial and parallel posterior-mean phi
  /// entries, after aligning topics by the best permutation.
  double phi_max_abs_diff = 0.0;
  /// Max abs difference of corpus-level topic shares (mean_d theta_dk).
  double topic_share_max_abs_diff = 0.0;
  /// Max abs difference of per-topic gel posterior-mean coordinates.
  double gel_mean_max_abs_diff = 0.0;
};

/// Trains one serial and one parallel chain of the chosen sampler on
/// `dataset` (burn_in_sweeps, then moments averaged over measure_sweeps) and
/// reports aligned posterior-moment differences. `base_config.num_threads`
/// is overridden (1 vs parallel_threads); requires num_topics <= 8 because
/// alignment enumerates topic permutations.
texrheo::StatusOr<MomentEquivalenceResult> CompareSerialVsParallelMoments(
    const core::JointTopicModelConfig& base_config,
    const recipe::Dataset& dataset, SamplerKind sampler, int parallel_threads,
    int burn_in_sweeps, int measure_sweeps);

}  // namespace texrheo::eval

#endif  // TEXRHEO_EVAL_GEWEKE_H_
