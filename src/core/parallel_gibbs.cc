#include "core/parallel_gibbs.h"

#include <algorithm>

namespace texrheo::core {
namespace {

/// Dense eq.-2 draw: the exact conditional over all K topics,
///   (n_dk^- + I[y_d = k] + alpha) * (n_kv^- + gamma) / (n_k^- + gamma V),
/// with the token removed by integer arithmetic before any conversion, so
/// every weight is bit-identical to the one an in-place decrement gives.
class DenseTokenDraw {
 public:
  DenseTokenDraw(const ZSweep& sweep, const TopicCountDelta& delta)
      : sweep_(sweep), delta_(delta), weights_(sweep.num_topics) {}

  /// `doc` is the token's n_dk row and `term` the shard's effective counts
  /// of its term, both still counting the token.
  int Draw(const int* doc, const int* term, int old_k, int y_d, Rng& rng) {
    // Locals, not member reads: the weight stores could otherwise alias
    // the sweep's doubles and force a reload every iteration.
    const int* n_k = sweep_.n_k->data();
    const int* delta_n_k = delta_.n_k.data();
    const double alpha = sweep_.alpha;
    const double gamma = sweep_.gamma;
    const double gamma_v = sweep_.gamma_v;
    double* w = weights_.data();
    const size_t k_count = weights_.size();
    for (size_t k = 0; k < k_count; ++k) {
      const int ki = static_cast<int>(k);
      const int removed = ki == old_k ? 1 : 0;
      const double doc_part = static_cast<double>(doc[k] - removed) +
                              (y_d == ki ? 1.0 : 0.0) + alpha;
      const double word_part =
          (static_cast<double>(term[k] - removed) + gamma) /
          (static_cast<double>(n_k[k] + delta_n_k[k] - removed) + gamma_v);
      w[k] = doc_part * word_part;
    }
    return static_cast<int>(rng.NextCategorical(weights_));
  }

 private:
  const ZSweep& sweep_;
  const TopicCountDelta& delta_;
  std::vector<double> weights_;
};

}  // namespace

int ResolveNumThreads(int configured) {
  if (configured == 0) return ThreadPool::HardwareConcurrency();
  return std::max(configured, 1);
}

std::vector<std::pair<size_t, size_t>> PlanShards(
    const std::vector<recipe::Document>& docs, int num_shards) {
  size_t shards = static_cast<size_t>(std::max(num_shards, 1));
  std::vector<std::pair<size_t, size_t>> ranges(shards, {0, 0});
  size_t total_work = 0;
  for (const auto& doc : docs) total_work += doc.term_ids.size() + 1;

  size_t d = 0;
  size_t work_done = 0;
  for (size_t s = 0; s < shards; ++s) {
    size_t begin = d;
    // Cumulative-work target keeps rounding drift from starving the tail.
    size_t target = total_work * (s + 1) / shards;
    while (d < docs.size() && (work_done < target || s + 1 == shards)) {
      work_done += docs[d].term_ids.size() + 1;
      ++d;
    }
    ranges[s] = {begin, d};
  }
  return ranges;
}

std::vector<std::vector<int>> TopicRows(const std::vector<int>& n_vk,
                                        size_t num_topics) {
  const size_t vocab = n_vk.size() / num_topics;
  std::vector<std::vector<int>> rows(num_topics, std::vector<int>(vocab));
  for (size_t v = 0; v < vocab; ++v) {
    for (size_t k = 0; k < num_topics; ++k) {
      rows[k][v] = n_vk[v * num_topics + k];
    }
  }
  return rows;
}

std::vector<int> TermMajor(const std::vector<std::vector<int>>& rows) {
  const size_t num_topics = rows.size();
  const size_t vocab = rows.empty() ? 0 : rows.front().size();
  std::vector<int> n_vk(vocab * num_topics);
  for (size_t k = 0; k < num_topics; ++k) {
    for (size_t v = 0; v < vocab; ++v) n_vk[v * num_topics + k] = rows[k][v];
  }
  return n_vk;
}

void SweepZShard(const ZSweep& sweep, std::pair<size_t, size_t> range,
                 TopicCountDelta& delta, Rng& rng) {
  DenseTokenDraw draw(sweep, delta);
  const int* counts = sweep.n_vk->data();
  for (size_t d = range.first; d < range.second; ++d) {
    const std::vector<int32_t>& terms = (*sweep.docs)[d].term_ids;
    std::vector<int>& z = (*sweep.z)[d];
    std::vector<int>& doc_counts = (*sweep.n_dk)[d];
    const int y_d = (*sweep.y)[d];
    for (size_t n = 0; n < terms.size(); ++n) {
      const size_t v = static_cast<size_t>(terms[n]);
      const int old_k = z[n];
      const int new_k = draw.Draw(doc_counts.data(), delta.Slice(counts, v),
                                  old_k, y_d, rng);
      if (new_k == old_k) continue;
      z[n] = new_k;
      --doc_counts[static_cast<size_t>(old_k)];
      ++doc_counts[static_cast<size_t>(new_k)];
      delta.Move(counts, v, old_k, new_k);
    }
  }
}

void ShardEngine::SweepZ(const ZSweep& sweep, Rng& master) {
  ForEachShard(master, [&](size_t s, Rng& rng) {
    SweepZShard(sweep, shards_[s], deltas_[s], rng);
    return Status::OK();
  });
  MergeDeltas(*sweep.n_vk, *sweep.n_k);
}

void ShardEngine::Ensure() {
  if (!shards_.empty()) return;
  const int threads = ResolveNumThreads(num_threads_);
  shards_ = PlanShards(*docs_, threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  // Stream 0 is the master (init, Gaussian redraws, and the one-shard
  // sweep); shards take streams 1..S so their draws never collide with it.
  // The num_threads == 1 chain records no streams at all, which is how its
  // checkpoints have always looked.
  if (num_threads_ != 1) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      streams_.push_back({Rng::ForStream(seed_, s + 1)});
    }
  }
  deltas_.assign(shards_.size(), TopicCountDelta(num_topics_, vocab_size_));
}

void ShardEngine::Reset() {
  pool_.reset();
  shards_.clear();
  streams_.clear();
  deltas_.clear();
}

void ShardEngine::MergeDeltas(std::vector<int>& n_vk, std::vector<int>& n_k) {
  const size_t k_count = n_k.size();
  // Each moved term is merged once, from every shard that moved it: the
  // frozen count plus each such shard's copy minus the frozen count.
  // Clearing the term's flags as it is merged keeps later shards from
  // merging it again.
  for (TopicCountDelta& delta : deltas_) {
    for (size_t v : delta.moved_terms) {
      if (delta.moved[v] == 0) continue;
      for (size_t i = v * k_count; i < (v + 1) * k_count; ++i) {
        int merged = n_vk[i];
        for (const TopicCountDelta& shard : deltas_) {
          if (shard.moved[v] != 0) merged += shard.n_vk[i] - n_vk[i];
        }
        n_vk[i] = merged;
      }
      for (TopicCountDelta& shard : deltas_) shard.moved[v] = 0;
    }
  }
  for (TopicCountDelta& delta : deltas_) {
    delta.moved_terms.clear();
    for (size_t k = 0; k < k_count; ++k) {
      n_k[k] += delta.n_k[k];
      delta.n_k[k] = 0;
    }
  }
}

void ShardEngine::CaptureStreams(CheckpointState& state) const {
  state.shard_rngs.clear();
  state.shard_rngs.reserve(streams_.size());
  for (const ShardStream& stream : streams_) {
    state.shard_rngs.push_back(stream.rng.SaveState());
  }
}

texrheo::Status ShardEngine::ValidateStreams(
    const CheckpointState& state) const {
  if (state.shard_rngs.empty()) return Status::OK();
  const size_t planned = static_cast<size_t>(ResolveNumThreads(num_threads_));
  if (planned != state.shard_rngs.size()) {
    return Status::FailedPrecondition(
        "checkpoint shard count differs from this machine's plan "
        "(hardware concurrency changed?)");
  }
  return Status::OK();
}

void ShardEngine::RestoreStreams(const CheckpointState& state) {
  Reset();
  if (state.shard_rngs.empty()) return;
  Ensure();
  for (size_t s = 0; s < streams_.size(); ++s) {
    streams_[s].rng.RestoreState(state.shard_rngs[s]);
  }
}

}  // namespace texrheo::core
