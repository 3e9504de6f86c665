#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

namespace texrheo {
namespace {

// SplitMix64: used only for seeding the main state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleNonZero() {
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return u;
}

uint64_t Rng::NextUint(uint64_t n) {
  assert(n > 0);
  // Lemire-style rejection to remove modulo bias.
  uint64_t threshold = (-n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextUint(span));
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

size_t Rng::NextCategorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  return DrawCategorical(weights, total);
}

std::optional<size_t> Rng::NextCategoricalFromLogs(
    const std::vector<double>& log_weights, std::vector<double>& weights) {
  assert(!log_weights.empty() && weights.size() == log_weights.size());
  // A NaN fails every comparison, so it never becomes the maximum; it
  // surfaces in the total instead.
  double max = -std::numeric_limits<double>::infinity();
  for (double lw : log_weights) max = lw > max ? lw : max;
  if (!std::isfinite(max)) return std::nullopt;
  double total = 0.0;
  for (size_t i = 0; i < log_weights.size(); ++i) {
    weights[i] = std::exp(log_weights[i] - max);
    total += weights[i];
  }
  if (!std::isfinite(total)) return std::nullopt;
  return DrawCategorical(weights, total);
}

size_t Rng::DrawCategorical(const std::vector<double>& weights,
                            double total) {
  assert(total > 0.0);
  double u = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  // Floating-point underflow at the boundary: return last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(NextU64()); }

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.words[i] = state_[i];
  state.has_cached_gaussian = has_cached_gaussian_;
  std::memcpy(&state.cached_gaussian_bits, &cached_gaussian_,
              sizeof(cached_gaussian_));
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) state_[i] = state.words[i];
  has_cached_gaussian_ = state.has_cached_gaussian;
  std::memcpy(&cached_gaussian_, &state.cached_gaussian_bits,
              sizeof(cached_gaussian_));
}

uint64_t Rng::StreamSeed(uint64_t seed, uint64_t stream) {
  // Mix the master seed first so nearby seeds land far apart, then fold in
  // the stream index scaled by an odd constant (distinct streams differ in
  // many bits before the final mix), and mix once more.
  uint64_t s = seed;
  uint64_t mixed = SplitMix64(s);
  s = mixed ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return SplitMix64(s);
}

}  // namespace texrheo
