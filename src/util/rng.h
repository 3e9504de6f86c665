#ifndef TEXRHEO_UTIL_RNG_H_
#define TEXRHEO_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace texrheo {

/// Deterministic 64-bit pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64. All stochastic components in this library draw from Rng so a
/// fixed seed reproduces an entire experiment end to end.
///
/// Not cryptographically secure; statistical quality is adequate for Monte
/// Carlo work (passes BigCrush per the xoshiro authors).
class Rng {
 public:
  /// Seeds the four-word state by iterating SplitMix64 from `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  uint64_t NextU64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Uniform double in [0, 1); never returns exactly 0 (safe for log()).
  double NextDoubleNonZero();

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection to avoid
  /// modulo bias.
  uint64_t NextUint(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal deviate (Marsaglia polar method, cached pair).
  double NextGaussian();

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p);

  /// Index drawn from unnormalized non-negative weights; requires a positive
  /// total. Linear scan — O(n); use math::AliasTable for repeated draws.
  size_t NextCategorical(const std::vector<double>& weights);

  /// Index drawn with probability proportional to exp(log_weights[i]), the
  /// one draw behind every Gibbs y conditional. The log-weights are shifted
  /// by their maximum before exponentiation, so no normalizer is taken: the
  /// draw is NextCategorical over exp(log_weights[i] - max), which `weights`
  /// (scratch of the same, non-zero size) holds on return. Returns nullopt,
  /// and draws nothing, when the maximum or the shifted total is not
  /// finite: a NaN or +inf entry, or every entry -inf.
  std::optional<size_t> NextCategoricalFromLogs(
      const std::vector<double>& log_weights, std::vector<double>& weights);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextUint(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Forks an independent stream (seeded from this stream's output); used to
  /// give parallel components decorrelated randomness.
  Rng Fork();

  /// Derives the seed of independent sub-stream `stream` of a master `seed`
  /// by SplitMix64 stream-splitting: the master seed is mixed once, the
  /// stream index is folded in with a distinct odd multiplier, and the
  /// result is mixed again. Distinct (seed, stream) pairs yield decorrelated
  /// xoshiro states, and the mapping is a pure function — callers can
  /// reconstruct any stream without ever sharing generator state. This is
  /// what gives each Gibbs worker thread its own counterfeit-free stream.
  static uint64_t StreamSeed(uint64_t seed, uint64_t stream);

  /// Rng seeded for sub-stream `stream` of `seed`.
  static Rng ForStream(uint64_t seed, uint64_t stream) {
    return Rng(StreamSeed(seed, stream));
  }

  /// Complete serializable generator state: the four xoshiro words plus the
  /// Marsaglia-polar spare deviate (its presence matters — dropping it would
  /// desynchronize a restored chain by one NextGaussian() call). The double
  /// travels as its raw bit pattern so a save/restore round trip is
  /// bit-exact. Used by the checkpoint subsystem.
  struct State {
    uint64_t words[4] = {0, 0, 0, 0};
    bool has_cached_gaussian = false;
    uint64_t cached_gaussian_bits = 0;
  };

  /// Captures the current state for checkpointing.
  State SaveState() const;

  /// Restores a previously captured state; the next draw continues exactly
  /// where the saved generator left off.
  void RestoreState(const State& state);

 private:
  /// NextCategorical's scan, given the weights' total summed in index order.
  size_t DrawCategorical(const std::vector<double>& weights, double total);

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace texrheo

#endif  // TEXRHEO_UTIL_RNG_H_
