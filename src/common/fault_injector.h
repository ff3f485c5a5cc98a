#ifndef NERGLOB_COMMON_FAULT_INJECTOR_H_
#define NERGLOB_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/status.h"

namespace nerglob::fault {

/// Registered injection sites. Every `InjectFault(site)` call site in the
/// codebase names one of these; ArmFromSpec rejects anything else, so a
/// typo'd NERGLOB_FAULT fails loudly instead of silently injecting
/// nothing. docs/RELIABILITY.md documents what each site simulates and
/// which layer absorbs it.
inline constexpr const char* kSiteIoOpenWrite = "io.open_write";
inline constexpr const char* kSiteIoWrite = "io.write";
inline constexpr const char* kSiteIoOpenRead = "io.open_read";
inline constexpr const char* kSiteIoRead = "io.read";
inline constexpr const char* kSiteCkptRename = "ckpt.rename";
inline constexpr const char* kSiteCkptManifestCommit = "ckpt.manifest_commit";
inline constexpr const char* kSiteServeEnqueue = "serve.enqueue";
inline constexpr const char* kSiteServeProcess = "serve.process";

/// The full catalog, for tests and tooling that must fire every site.
inline constexpr const char* kAllSites[] = {
    kSiteIoOpenWrite,  kSiteIoWrite,      kSiteIoOpenRead,
    kSiteIoRead,       kSiteCkptRename,   kSiteCkptManifestCommit,
    kSiteServeEnqueue, kSiteServeProcess,
};

/// Deterministic fault injector driving the reliability test surface
/// (docs/RELIABILITY.md). Injection sites are cheap named probes on the
/// failure-prone operations (IO, checkpoint commit, serve enqueue); when a
/// site "fires" the operation behaves as if the underlying syscall failed.
///
/// Spec grammar (NERGLOB_FAULT environment variable, or ArmFromSpec):
///
///   spec    := clause (',' clause)*
///   clause  := site ':' directive | "seed=" integer
///   directive := N        fail exactly the Nth hit of the site (1-based)
///              | N '+'    fail the Nth and every later hit (persistent)
///              | "p=" F   fail each hit independently with probability F
///
///   NERGLOB_FAULT="ckpt.rename:1"              first rename fails once
///   NERGLOB_FAULT="io.write:3+,io.read:1"      persistent + one-shot
///   NERGLOB_FAULT="io.write:p=0.1,seed=7"      seeded probabilistic
///
/// Determinism: Nth-hit clauses are exact; probabilistic clauses draw from
/// one seeded Rng in site-hit order, so a single-threaded run reproduces
/// its fault pattern bit-for-bit for a given seed (multi-threaded hit
/// interleaving is scheduler-dependent by nature).
///
/// The disarmed fast path is one relaxed atomic load — leaving the probes
/// compiled into production builds costs nothing measurable.
class FaultInjector {
 public:
  /// Process-wide injector; the first call arms it from NERGLOB_FAULT
  /// (an invalid spec is a CHECK failure — chaos runs must not silently
  /// inject nothing).
  static FaultInjector& Global();

  /// Replaces the active spec (resetting all hit/injection counts).
  /// InvalidArgument on grammar errors or unregistered site names.
  Status ArmFromSpec(const std::string& spec);

  /// Removes every clause and resets all counters.
  void Disarm();

  /// True if any clause is armed.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Records a hit of `site` and returns true if an armed clause says this
  /// hit fails. The caller then simulates the failure (typically by
  /// returning Status::IoError naming the site).
  bool ShouldFail(const char* site);

  /// Hits observed / failures injected at `site` since the last
  /// ArmFromSpec/Disarm (hits are only counted while armed).
  uint64_t HitCount(const std::string& site) const;
  uint64_t InjectedCount(const std::string& site) const;
  uint64_t TotalInjected() const;

 private:
  FaultInjector();

  struct Clause {
    enum class Mode { kNth, kPersistent, kProbability };
    Mode mode = Mode::kNth;
    uint64_t nth = 0;        // kNth / kPersistent
    double probability = 0;  // kProbability
  };

  mutable std::mutex mu_;
  std::map<std::string, Clause> clauses_;
  std::map<std::string, uint64_t> hits_;
  std::map<std::string, uint64_t> injected_;
  uint64_t total_injected_ = 0;
  uint64_t seed_ = 1;
  std::unique_ptr<Rng> rng_;
  std::atomic<bool> armed_{false};
};

/// The probe every injection site calls. Disarmed cost: one relaxed load.
inline bool InjectFault(const char* site) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.armed()) return false;
  return injector.ShouldFail(site);
}

}  // namespace nerglob::fault

#endif  // NERGLOB_COMMON_FAULT_INJECTOR_H_
