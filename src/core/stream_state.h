#ifndef NERGLOB_CORE_STREAM_STATE_H_
#define NERGLOB_CORE_STREAM_STATE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "stream/candidate_base.h"
#include "stream/tweet_base.h"
#include "tensor/matrix.h"
#include "text/bio.h"
#include "trie/candidate_trie.h"

namespace nerglob::io {
class TensorWriter;
class TensorReader;
}  // namespace nerglob::io

namespace nerglob::core {

/// A message that left the sliding window: its id and the final Global NER
/// spans it had at eviction time (the checkpoint the streaming session
/// flushes downstream).
struct FinalizedMessage {
  int64_t message_id = 0;
  std::vector<text::EntitySpan> spans;
  friend bool operator==(const FinalizedMessage& a, const FinalizedMessage& b) {
    return a.message_id == b.message_id && a.spans == b.spans;
  }
};

/// Per-component heap accounting for the pipeline's stream state, in
/// approximate bytes. With window_messages > 0 every component is bounded
/// by the window content; unbounded otherwise.
struct PipelineMemoryUsage {
  size_t tweet_base_bytes = 0;
  size_t candidate_base_bytes = 0;
  size_t trie_bytes = 0;
  size_t embed_cache_bytes = 0;
  size_t total_bytes = 0;
};

/// Cache key for one embedded span: (message id, token span).
struct SpanKey {
  int64_t message_id = 0;
  size_t begin = 0;
  size_t end = 0;
  friend bool operator==(const SpanKey& a, const SpanKey& b) {
    return a.message_id == b.message_id && a.begin == b.begin && a.end == b.end;
  }
};
struct SpanKeyHash {
  size_t operator()(const SpanKey& k) const {
    size_t h = std::hash<int64_t>()(k.message_id);
    h = h * 1000003u ^ std::hash<size_t>()(k.begin);
    h = h * 1000003u ^ std::hash<size_t>()(k.end);
    return h;
  }
};

/// All mutable state one stream session accumulates: the three stores
/// (TweetBase, CTrie, CandidateBase), the incremental-refresh and eviction
/// bookkeeping, the phrase-embedding cache, and the finalized-output
/// buffer. The counterpart of the immutable ModelBundle in the
/// model/session split — NerGlobalizer is a thin engine owning one
/// StreamState and borrowing one const ModelBundle.
///
/// Serializable: Save/Load checkpoint the complete state bit-identically
/// (unordered containers are written in sorted key order; the restored
/// CandidateBase keeps its incrementally-maintained embedding sums
/// verbatim), so a restored session's Predictions() at every
/// PipelineStage equal the uninterrupted run's.
struct StreamState {
  stream::TweetBase tweet_base;
  trie::CandidateTrie trie;
  stream::CandidateBase candidate_base;
  /// Most-frequent-local-type votes per surface (for kMentionExtraction).
  /// Decremented on eviction so the votes always describe the live window.
  std::map<std::string, std::array<int, text::kNumEntityTypes>>
      local_type_votes;
  /// Surfaces whose mention pool changed since the last RefreshCandidates.
  std::vector<std::string> dirty_surfaces;
  /// Per-surface count of live local-NER spans that seeded it. A surface
  /// whose support reaches zero under eviction is pruned from the CTrie and
  /// the CandidateBase — exactly the surfaces a from-scratch rebuild of the
  /// window would never have seeded.
  std::unordered_map<std::string, int> seed_support;
  /// Memoized PhraseEmbedder outputs keyed by (message id, span); entries
  /// live as long as their message. Only populated in windowed mode.
  std::unordered_map<SpanKey, Matrix, SpanKeyHash> embed_cache;
  /// Predictions flushed by eviction, awaiting TakeFinalized().
  std::vector<FinalizedMessage> finalized;

  size_t evicted_messages = 0;
  size_t embed_cache_hits = 0;
  size_t embed_cache_misses = 0;

  /// Approximate heap footprint per store. O(state size).
  PipelineMemoryUsage MemoryUsage() const;

  /// Appends the complete state as a sequence of checksummed records
  /// (tweet base, candidate base, trie, pipeline bookkeeping).
  Status Save(io::TensorWriter* writer) const;

  /// Restores a state saved with Save whose embeddings are `dim` wide (the
  /// phrase embedder's width). Two-phase: `*this` is replaced only once
  /// every record validates, so a corrupt checkpoint leaves the state
  /// untouched.
  Status Load(io::TensorReader* reader, size_t dim);
};

}  // namespace nerglob::core

#endif  // NERGLOB_CORE_STREAM_STATE_H_
