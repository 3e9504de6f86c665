#ifndef TEXRHEO_CORE_PARALLEL_GIBBS_H_
#define TEXRHEO_CORE_PARALLEL_GIBBS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "recipe/dataset.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace texrheo::core {

/// The Gibbs sweep engine shared by JointTopicModel and
/// CollapsedJointTopicModel (AD-LDA style document sharding: each shard
/// sweeps a contiguous document range against a frozen snapshot of the
/// global topic-word counts, accumulating its own counterfactual delta,
/// and the deltas are merged in shard order once the sweep finishes). A
/// plan with a single shard is the serial chain: one shard that reads the
/// frozen counts plus its own delta sees exactly the counts an in-place
/// sweep would, and it runs inline on the caller's thread with the master
/// RNG stream, so the trajectory is bit-identical to an in-place scan.

/// Resolves the config knob: 0 means "hardware concurrency", anything else
/// is taken literally (clamped to >= 1).
int ResolveNumThreads(int configured);

/// Contiguous, token-balanced document shards: shard s covers documents
/// [ranges[s].first, ranges[s].second). Balancing works on token counts (+1
/// per document for the y draw) so one long-document shard does not
/// serialize the sweep. Always returns exactly `num_shards` ranges; trailing
/// ranges may be empty when there are fewer documents than shards.
std::vector<std::pair<size_t, size_t>> PlanShards(
    const std::vector<recipe::Document>& docs, int num_shards);

/// One shard's changes to the frozen topic-word counts during a sweep: its
/// effective counts are the frozen counts plus its own moves, which stay
/// non-negative because a shard only moves tokens the frozen counts still
/// contain. A term's K counts are read straight from the frozen array until
/// the shard first moves one of its tokens; the shard then copies that
/// slice and moves counts in the copy, so every token reads exactly one
/// contiguous slice. Merging costs O(K) per moved term, not O(K * V).
struct TopicCountDelta {
  TopicCountDelta(int num_topics, size_t vocab_size)
      : num_topics(static_cast<size_t>(num_topics)),
        n_vk(vocab_size * this->num_topics, 0),
        moved(vocab_size, 0),
        n_k(this->num_topics, 0) {}

  /// Term v's effective counts given the frozen array `counts`.
  const int* Slice(const int* counts, size_t v) const {
    return (moved[v] != 0 ? n_vk.data() : counts) + v * num_topics;
  }

  /// Moves one token of term v from topic `from` to topic `to`.
  void Move(const int* counts, size_t v, int from, int to) {
    int* slice = n_vk.data() + v * num_topics;
    if (moved[v] == 0) {
      moved[v] = 1;
      moved_terms.push_back(v);
      std::copy(counts + v * num_topics, counts + (v + 1) * num_topics,
                slice);
    }
    --slice[from];
    ++slice[to];
    --n_k[static_cast<size_t>(from)];
    ++n_k[static_cast<size_t>(to)];
  }

  size_t num_topics;
  std::vector<int> n_vk;             ///< [v * K + k], valid where moved[v].
  std::vector<uint8_t> moved;        ///< [v]: the shard moved a v token.
  std::vector<size_t> moved_terms;   ///< The v with moved[v], in order.
  std::vector<int> n_k;              ///< [k] topic-total delta.
};

/// Term-major counts [v * K + k] as topic rows [k][v] (the checkpoint's
/// layout), and back.
std::vector<std::vector<int>> TopicRows(const std::vector<int>& n_vk,
                                        size_t num_topics);
std::vector<int> TermMajor(const std::vector<std::vector<int>>& rows);

/// The token-topic state an eq.-2 sweep reads and writes. The topic-word
/// counts are term-major (n_vk[v * K + k]), so one term's K counts are one
/// contiguous slice, and they stay frozen while the shards run; z and n_dk
/// rows are written only by the shard owning the document.
struct ZSweep {
  const std::vector<recipe::Document>* docs;
  const std::vector<int>* y;
  std::vector<std::vector<int>>* z;
  std::vector<std::vector<int>>* n_dk;
  std::vector<int>* n_vk;
  std::vector<int>* n_k;
  size_t num_topics;
  double alpha;
  double gamma;
  double gamma_v;  ///< gamma * V.
};

/// The eq.-2 shard kernel: redraws z for every token of documents
/// [range.first, range.second) from the exact conditional over all K topics
/// (DenseTokenDraw, in the .cc), against the frozen counts plus `delta`.
/// The token stays counted while its topic is drawn (the draw removes it
/// virtually, as a -1 on old_k's counts), so counts are written only when
/// the topic moves.
void SweepZShard(const ZSweep& sweep, std::pair<size_t, size_t> range,
                 TopicCountDelta& delta, Rng& rng);

/// Owns the shard plan, the worker pool, the per-shard RNG streams and
/// count deltas, and their checkpoint capture/validate/restore. The plan is
/// built lazily on first use and dropped by Reset().
class ShardEngine {
 public:
  /// `docs` must outlive the engine.
  ShardEngine(int num_threads, uint64_t seed, int num_topics,
              size_t vocab_size, const std::vector<recipe::Document>* docs)
      : num_threads_(num_threads),
        seed_(seed),
        num_topics_(num_topics),
        vocab_size_(vocab_size),
        docs_(docs) {}

  /// Plans the shards (num_threads resolved, token-balanced ranges) and
  /// splits the RNG streams; no-op when already planned.
  void Ensure();
  /// Drops the plan; the next Ensure() replans and re-splits the streams.
  void Reset();

  size_t num_shards() const { return shards_.size(); }
  std::pair<size_t, size_t> shard(size_t s) const { return shards_[s]; }

  /// Runs fn(s, rng) -> Status for every shard and returns the first non-OK
  /// Status in shard order. A one-shard plan runs inline on the calling
  /// thread and draws from `master`; otherwise every shard runs on the pool
  /// and shard s draws from its own stream.
  template <typename Fn>
  texrheo::Status ForEachShard(Rng& master, Fn&& fn) {
    Ensure();
    if (shards_.size() == 1) return fn(size_t{0}, master);
    std::vector<texrheo::Status> statuses(shards_.size(), Status::OK());
    pool_->ParallelFor(static_cast<int>(shards_.size()), [&](int s) {
      const size_t ss = static_cast<size_t>(s);
      statuses[ss] = fn(ss, streams_[ss].rng);
    });
    for (texrheo::Status& status : statuses) {
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

  /// One eq.-2 sweep: every shard runs SweepZShard against the frozen
  /// counts with its own delta, then the deltas merge into sweep.n_vk /
  /// sweep.n_k in shard order.
  void SweepZ(const ZSweep& sweep, Rng& master);

  /// Records the per-shard streams (none for the num_threads == 1 chain,
  /// which draws from the master stream alone).
  void CaptureStreams(CheckpointState& state) const;
  /// FailedPrecondition when the checkpoint's stream count differs from
  /// the plan this machine would build (hardware concurrency changed).
  texrheo::Status ValidateStreams(const CheckpointState& state) const;
  /// Replans and restores the checkpoint's streams; a checkpoint without
  /// streams leaves the plan to be built fresh on the next sweep.
  void RestoreStreams(const CheckpointState& state);

 private:
  void MergeDeltas(std::vector<int>& n_vk, std::vector<int>& n_k);

  int num_threads_;
  uint64_t seed_;
  int num_topics_;
  size_t vocab_size_;
  const std::vector<recipe::Document>* docs_;
  std::unique_ptr<ThreadPool> pool_;  ///< Null for a one-shard plan.
  std::vector<std::pair<size_t, size_t>> shards_;
  /// One SplitMix64-split stream per shard, each alone on its cache line:
  /// every draw writes the state, so streams packed side by side would
  /// bounce one line between the shards' cores.
  struct alignas(64) ShardStream {
    Rng rng;
  };
  std::vector<ShardStream> streams_;
  std::vector<TopicCountDelta> deltas_;
};

}  // namespace texrheo::core

#endif  // TEXRHEO_CORE_PARALLEL_GIBBS_H_
