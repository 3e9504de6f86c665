#ifndef TEXRHEO_CORE_TOPIC_GAUSSIANS_H_
#define TEXRHEO_CORE_TOPIC_GAUSSIANS_H_

#include <cstddef>
#include <vector>

#include "math/distributions.h"
#include "math/linalg.h"

namespace texrheo::core {

/// Contiguous structure-of-arrays mirror of the per-topic Gaussian
/// parameters (mean, precision, log normalizer) with the *topic* index
/// innermost, so the eq.-3 log-density evaluation over all K topics is one
/// batch of unit-stride loops the compiler can vectorize (and fuse with FMA
/// where the target has it), instead of K pointer-chasing Gaussian::LogPdf
/// calls.
///
/// Bit-exactness contract: BatchLogPdf, LogPdfScalar, and
/// math::Gaussian::LogPdf perform the *same* floating-point operations in
/// the same order for every topic (row-by-row quadratic form, then
/// 0.5 * (log_norm - quad)), so all three agree to the last bit. The batch
/// loop only reorders work *across* topics, never within one topic, and the
/// build keeps the default FP contraction settings of the rest of the
/// project. tests/topic_gaussians_test.cc and the SIMD cases in
/// tests/sampler_exactness_test.cc pin this for K both a multiple and a
/// non-multiple of any plausible vector width.
class TopicGaussiansSoA {
 public:
  /// Reusable per-caller workspace for BatchLogPdf. The evaluator itself is
  /// const and touches no shared scratch, so any number of threads may
  /// evaluate concurrently against one TopicGaussiansSoA as long as each
  /// brings its own Scratch (the FoldInTheta concurrency contract).
  struct Scratch {
    std::vector<double> diff;  ///< dim * K centered coordinates.
    std::vector<double> row;   ///< K running row sums of the quadratic form.
  };

  TopicGaussiansSoA() = default;

  /// Packs `topics` (all of equal dimension) into the SoA layout. An empty
  /// input yields an empty evaluator.
  static TopicGaussiansSoA FromGaussians(
      const std::vector<math::Gaussian>& topics);

  size_t num_topics() const { return k_; }
  size_t dim() const { return dim_; }
  bool empty() const { return k_ == 0; }

  /// out[k] = log N(x | mu_k, Lambda_k) for every topic k, in one pass.
  /// `out` must hold num_topics() doubles; `scratch` is resized as needed.
  void BatchLogPdf(const math::Vector& x, Scratch& scratch,
                   double* out) const;

  /// Scalar path: identical arithmetic for a single topic, and no heap
  /// scratch, so the likelihood pass can call it once per document.
  double LogPdfScalar(size_t k, const math::Vector& x) const;

 private:
  size_t k_ = 0;
  size_t dim_ = 0;
  std::vector<double> mean_;      ///< [i * K + k].
  std::vector<double> prec_;      ///< [(i * dim + j) * K + k].
  std::vector<double> log_norm_;  ///< [k]: log|Lambda_k| - dim * log(2 pi).
};

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_TOPIC_GAUSSIANS_H_
