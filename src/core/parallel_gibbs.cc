#include "core/parallel_gibbs.h"

#include <algorithm>

namespace texrheo::core {

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
      streams_.push_back(Rng::ForStream(seed_, s + 1));
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
  for (const Rng& r : streams_) state.shard_rngs.push_back(r.SaveState());
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
    streams_[s].RestoreState(state.shard_rngs[s]);
  }
}

}  // namespace texrheo::core
