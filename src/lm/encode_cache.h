#ifndef NERGLOB_LM_ENCODE_CACHE_H_
#define NERGLOB_LM_ENCODE_CACHE_H_

namespace nerglob::lm {

/// Always nullptr: the encoder has no cache. Kept only for the end-to-end
/// benchmark's knob line; drop it (and serve::DefaultBatchEncode) in the
/// next change to the benchmark.
class EncodeCache {
 public:
  static EncodeCache* Global() { return nullptr; }
};

}  // namespace nerglob::lm

#endif  // NERGLOB_LM_ENCODE_CACHE_H_
