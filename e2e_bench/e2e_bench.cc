// End-to-end benchmark of the NER Globalizer stream and fleet paths.
//
// One process runs one workload (see README.md for the workloads, the
// metric definitions and which layer metric should move which end-to-end
// metric). The flow is the same for every workload:
//
//   setup (x kSetups, median reported): load the bundle trained earlier
//     by a separate --train-only process (so no run trains), generate
//     the seeded streams, open the session(s), run one untimed warm-up pass
//     whose output becomes the reference;
//   timed phase: repeat passes over the same streams for --seconds; every
//     pass must reproduce the reference byte for byte. Throughput is the
//     median over passes of each pass's messages over its timed wall, and
//     the latency percentiles pool every timed sample of every pass;
//   checks: exactly-once stream order, macro-F1 against the generator's
//     gold spans, and a stage-by-stage replay of every stream that must
//     match the served output.
//
// With --trace 1 half of the time is spent on the untraced path and half on
// the traced one (the stage replay with the benchmark's own timers around
// each stage call, metrics on, plus — for fleets — the served path with
// metrics on), and the per-layer metrics are printed instead of the
// end-to-end ones. The last stdout line is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/stages.h"
#include "core/stream_state.h"
#include "data/generator.h"
#include "eval/metrics.h"
#include "harness/experiment.h"
#include "lm/encode_cache.h"
#include "serve/session_manager.h"
#include "stream/streaming_session.h"
#include "tensor/kernels.h"

namespace {

using namespace nerglob;

using Batches = std::vector<std::vector<stream::Message>>;
using Output = std::vector<core::FinalizedMessage>;

// The bundle every run loads: default training recipe at the CI scale.
constexpr double kScale = 0.08;
// Setups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Workload {
  const char* name;
  size_t tenants;    // 1 = one StreamingSession; more = SessionManager fleet
  size_t window;     // window_messages
  size_t batch;      // messages per batch
  size_t messages;   // messages per stream per pass
  bool shared_pool;  // tenants sample from one pool (retweets)
};

constexpr Workload kWorkloads[] = {
    {"single_stream", 1, 1024, 32, 16384, false},
    {"fleet_distinct", 8, 128, 32, 4096, false},
    {"fleet_retweet", 8, 128, 32, 4096, true},
};

// fleet_retweet is a synthetic stress point, not observed traffic: no
// measured retweet share of a targeted stream is at hand, so these values
// are chosen, not fitted. Pool size relative to one tenant's stream, and the
// Zipf-Mandelbrot weights of message reuse over pool ranks, p(k) ~
// 1/(k + 1 + offset)^exponent, shared by all tenants so the same sentences
// recur within and across tenants (about 5 times each over a run's
// streams). The offset flattens the head: under a plain Zipf the top
// message is ~10% of the stream, and macro-F1 then swings with whichever
// message the seed puts first.
constexpr size_t kPoolFactor = 2;
constexpr double kRetweetZipf = 1.0;
constexpr double kRetweetOffset = 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
  bool tiny = false;
  bool train_only = false;
  std::string corrupt;  // "", "spans" or "order": self-test of the checks
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--train-only") {
      args->train_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--cache-dir") {
      args->cache_dir = value;
    } else if (flag == "--corrupt") {
      args->corrupt = value;
    } else {
      return false;
    }
  }
  if (args->train_only) return !args->cache_dir.empty();
  return !args->workload.empty() && !args->cache_dir.empty() &&
         args->seconds > 0 &&
         (args->corrupt.empty() || args->corrupt == "spans" ||
          args->corrupt == "order");
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 29);
}

harness::BuildOptions BundleOptions(const std::string& cache_dir) {
  harness::BuildOptions options;
  options.scale = kScale;
  options.cache_dir = cache_dir;
  return options;
}

// ---------------------------------------------------------------- inputs

std::vector<std::vector<stream::Message>> MakeStreams(
    const harness::TrainedSystem& system, const Workload& w, uint64_t seed) {
  data::StreamGenerator gen(&system.kb_eval);
  data::DatasetSpec spec = data::MakeDatasetSpec("D4", kScale);  // 5 topics
  std::vector<std::vector<stream::Message>> streams;
  if (!w.shared_pool) {
    for (size_t t = 0; t < w.tenants; ++t) {
      spec.num_messages = w.messages;
      spec.seed = Mix(seed, t);
      streams.push_back(gen.Generate(spec));
    }
    return streams;
  }
  spec.num_messages = kPoolFactor * w.messages;
  spec.seed = Mix(seed, 1000);
  const std::vector<stream::Message> pool = gen.Generate(spec);
  std::vector<double> cdf(pool.size());
  double total = 0.0;
  for (size_t k = 0; k < pool.size(); ++k) {
    total += 1.0 / std::pow(k + 1 + kRetweetOffset, kRetweetZipf);
    cdf[k] = total;
  }
  for (size_t t = 0; t < w.tenants; ++t) {
    Rng rng(Mix(seed, 2000 + t));
    std::vector<stream::Message> s;
    s.reserve(w.messages);
    for (size_t i = 0; i < w.messages; ++i) {
      const double r = rng.NextDouble() * total;
      const size_t k = std::min<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), r) - cdf.begin(),
          pool.size() - 1);
      s.push_back(pool[k]);
      s.back().id = static_cast<int64_t>(i);  // ids stay unique per stream
    }
    streams.push_back(std::move(s));
  }
  return streams;
}

Batches SplitBatches(const std::vector<stream::Message>& messages,
                     size_t batch) {
  Batches out;
  for (size_t i = 0; i < messages.size(); i += batch) {
    const size_t end = std::min(messages.size(), i + batch);
    out.emplace_back(messages.begin() + static_cast<std::ptrdiff_t>(i),
                     messages.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

double UniqueSentenceFrac(
    const std::vector<std::vector<stream::Message>>& streams) {
  std::unordered_set<std::string> seen;
  size_t total = 0;
  for (const auto& s : streams) {
    for (const stream::Message& m : s) seen.insert(m.text);
    total += s.size();
  }
  return total == 0 ? 0.0 : static_cast<double>(seen.size()) / total;
}

// Distinct texts within each batch over messages: the share of sentences
// left to encode after EncodeMany's in-batch dedup, the only dedup that
// acts while the encode cache and the batch scheduler are off (defaults).
double BatchUniqueFrac(const std::vector<Batches>& batches) {
  size_t unique = 0, total = 0;
  for (const Batches& stream : batches) {
    for (const auto& batch : stream) {
      std::unordered_set<std::string> seen;
      for (const stream::Message& m : batch) seen.insert(m.text);
      unique += seen.size();
      total += batch.size();
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(unique) / total;
}

// ---------------------------------------------------------------- checks

uint64_t Digest(const std::vector<Output>& outputs) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Output& out : outputs) {
    mix(out.size());
    for (const core::FinalizedMessage& f : out) {
      mix(static_cast<uint64_t>(f.message_id));
      mix(f.spans.size());
      for (const text::EntitySpan& s : f.spans) {
        mix(s.begin_token);
        mix(s.end_token);
        mix(static_cast<uint64_t>(s.type));
      }
    }
  }
  return h;
}

// Each message of the stream finalized exactly once, in stream order.
bool ExactlyOnceInOrder(const std::vector<stream::Message>& stream,
                        const Output& out) {
  if (out.size() != stream.size()) return false;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].message_id != stream[i].id) return false;
  }
  return true;
}

// `prefix` (what a stage replay finalized by eviction) is byte-identical to
// the start of `full`, and covers every message that left the window.
bool MatchesPrefix(const Output& prefix, const Output& full, size_t window) {
  if (full.size() < window || prefix.size() != full.size() - window) {
    return false;
  }
  return std::equal(prefix.begin(), prefix.end(), full.begin());
}

double MacroF1(const std::vector<std::vector<stream::Message>>& streams,
               const std::vector<Output>& outputs) {
  std::vector<std::vector<text::EntitySpan>> gold;
  std::vector<std::vector<text::EntitySpan>> pred;
  for (size_t t = 0; t < streams.size(); ++t) {
    for (size_t i = 0; i < streams[t].size(); ++i) {
      gold.push_back(streams[t][i].gold_spans);
      pred.push_back(i < outputs[t].size() ? outputs[t][i].spans
                                           : std::vector<text::EntitySpan>{});
    }
  }
  return eval::EvaluateNer(gold, pred).macro_f1;
}

void Corrupt(const std::string& how, std::vector<Output>* outputs) {
  Output& out = outputs->front();
  if (out.size() < 2) return;
  if (how == "spans") {
    out[1].spans.push_back({0, 1, text::EntityType::kMisc});
  } else if (how == "order") {
    std::swap(out[0], out[1]);
  }
}

// ---------------------------------------------------------------- timing

struct PassTiming {
  // One per op after the window filled, pass after pass.
  std::vector<double> samples_ms;
  size_t timed_messages = 0;
  double timed_seconds = 0.0;  // sum of the timed samples
  double total_seconds = 0.0;  // every op of the pass, fill included
  size_t ops = 0;
  size_t failed = 0;
  size_t queue_depth_max = 0;
};

// Batches before this index only fill the window; they are not timed.
size_t FillOps(const Workload& w) { return (w.window + w.batch - 1) / w.batch; }

core::NerGlobalizerConfig PipelineConfig(const core::ModelBundle& bundle,
                                         const Workload& w) {
  core::NerGlobalizerConfig config = core::DefaultPipelineConfig(bundle);
  config.window_messages = w.window;
  return config;
}

// One pass of single_stream: one StreamingSession, one sample per
// ProcessBatch call.
std::vector<Output> SessionPass(const core::ModelBundle& bundle,
                                const Workload& w,
                                const std::vector<Batches>& batches,
                                PassTiming* timing) {
  stream::StreamingSessionConfig config;
  config.pipeline = PipelineConfig(bundle, w);
  stream::StreamingSession session(&bundle, config);
  const size_t fill = FillOps(w);
  for (size_t b = 0; b < batches[0].size(); ++b) {
    WallTimer timer;
    session.ProcessBatch(batches[0][b]);
    const double dt = timer.ElapsedSeconds();
    ++timing->ops;
    timing->total_seconds += dt;
    if (b < fill) continue;
    timing->samples_ms.push_back(dt * 1e3);
    timing->timed_seconds += dt;
    timing->timed_messages += batches[0][b].size();
  }
  session.Flush();
  return {session.TakeFinalized()};
}

std::string TenantId(size_t t) { return "tenant-" + std::to_string(t); }

// Submits with retry while the shard is overloaded. Any other error, or
// overload lasting 30 s, is a failed operation.
bool SubmitWithRetry(serve::SessionManager* manager, const std::string& id,
                     const std::vector<stream::Message>& batch) {
  WallTimer waited;
  while (true) {
    const Status s = manager->Submit(id, batch);
    if (s.ok()) return true;
    if (s.code() != StatusCode::kUnavailable || waited.ElapsedSeconds() > 30) {
      std::fprintf(stderr, "Submit(%s) failed: %s\n", id.c_str(),
                   s.ToString().c_str());
      return false;
    }
    std::this_thread::yield();
  }
}

// One pass of a fleet workload: every tick submits batch k of every tenant
// and collects every tenant's finalized output; one sample per tick.
std::vector<Output> FleetPass(serve::SessionManager* manager,
                              const Workload& w,
                              const std::vector<Batches>& batches,
                              bool poll_depth, PassTiming* timing) {
  std::vector<Output> outputs(w.tenants);
  for (size_t t = 0; t < w.tenants; ++t) {
    if (!manager->Open(TenantId(t)).ok()) ++timing->failed;
  }
  const size_t fill = FillOps(w);
  for (size_t k = 0; k < batches[0].size(); ++k) {
    WallTimer timer;
    size_t messages = 0;
    for (size_t t = 0; t < w.tenants; ++t) {
      ++timing->ops;
      if (!SubmitWithRetry(manager, TenantId(t), batches[t][k])) {
        ++timing->failed;
      }
      messages += batches[t][k].size();
    }
    if (poll_depth) {
      for (size_t s = 0; s < manager->num_shards(); ++s) {
        timing->queue_depth_max =
            std::max(timing->queue_depth_max, manager->QueueDepth(s));
      }
    }
    for (size_t t = 0; t < w.tenants; ++t) {
      auto got = manager->TakeFinalized(TenantId(t));
      if (!got.ok()) {
        ++timing->failed;
        continue;
      }
      for (core::FinalizedMessage& f : *got) outputs[t].push_back(std::move(f));
    }
    const double dt = timer.ElapsedSeconds();
    timing->total_seconds += dt;
    if (k < fill) continue;
    timing->samples_ms.push_back(dt * 1e3);
    timing->timed_seconds += dt;
    timing->timed_messages += messages;
  }
  for (size_t t = 0; t < w.tenants; ++t) {
    const std::string id = TenantId(t);
    const bool flushed = manager->Flush(id).ok();
    auto got = manager->TakeFinalized(id);
    if (flushed && got.ok()) {
      for (core::FinalizedMessage& f : *got) outputs[t].push_back(std::move(f));
    } else {
      ++timing->failed;
    }
    if (!manager->Close(id).ok()) ++timing->failed;
  }
  return outputs;
}

// ---------------------------------------------------------- stage replay

struct StageTimes {
  double encode = 0, ingest = 0, extract = 0, refresh = 0, evict = 0;
  double batch_wall = 0;
  size_t dirty_surfaces = 0;
  size_t state_peak_bytes = 0;
  size_t embed_hits = 0, embed_misses = 0;
};

// Drives one stream through the five public stage functions with a timer
// around each call — the traced path. Returns what eviction finalized (the
// stream minus its last window, which only a Flush would emit).
Output StageReplay(const core::ModelBundle& bundle, const Workload& w,
                   const Batches& batches, StageTimes* times) {
  const core::NerGlobalizerConfig config = PipelineConfig(bundle, w);
  const core::stages::ModelView view{&bundle.model(), &bundle.embedder(),
                                     &bundle.classifier()};
  core::StreamState state;
  Output out;
  for (const auto& batch : batches) {
    const auto start = MonotonicClock::now();
    auto timed = [&](double* slot, auto stage, core::stages::StageContext& ctx) {
      const auto t0 = MonotonicClock::now();
      stage(view, state, ctx);
      *slot += std::chrono::duration<double>(MonotonicClock::now() - t0).count();
    };
    core::stages::StageContext ctx;
    ctx.config = &config;
    ctx.batch = &batch;
    timed(&times->encode, core::stages::LocalEncode, ctx);
    timed(&times->ingest, core::stages::IngestLocal, ctx);
    timed(&times->extract, core::stages::ExtractMentions, ctx);
    // Bookkeeping read outside the batch wall: the dirty set as handed to
    // RefreshCandidates (it dedups internally).
    const auto count_start = MonotonicClock::now();
    std::vector<std::string> dirty = state.dirty_surfaces;
    std::sort(dirty.begin(), dirty.end());
    times->dirty_surfaces +=
        std::unique(dirty.begin(), dirty.end()) - dirty.begin();
    const auto count_end = MonotonicClock::now();
    timed(&times->refresh, core::stages::RefreshCandidates, ctx);
    timed(&times->evict, core::stages::Evict, ctx);
    for (core::FinalizedMessage& f : state.finalized) out.push_back(std::move(f));
    state.finalized.clear();
    times->batch_wall +=
        std::chrono::duration<double>(MonotonicClock::now() - start -
                                      (count_end - count_start))
            .count();
    times->state_peak_bytes =
        std::max(times->state_peak_bytes, state.MemoryUsage().total_bytes);
  }
  times->embed_hits += state.embed_cache_hits;
  times->embed_misses += state.embed_cache_misses;
  return out;
}

// ----------------------------------------------------------------- stats

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterValue(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name)->value();
}

double StageSeconds(const std::string& stage, const char* which = "wall") {
  return metrics::MetricsRegistry::Global()
      .GetHistogram("stage." + stage + "." + which + "_seconds")
      ->sum();
}

struct MetricOut {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<MetricOut>& metrics_out) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_out.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_out[i].name.c_str(),
                  std::isfinite(metrics_out[i].value) ? metrics_out[i].value : 0.0,
                  metrics_out[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ------------------------------------------------------------------ run

struct Setup {
  harness::TrainedSystem system;
  std::vector<std::vector<stream::Message>> streams;
  std::vector<Batches> batches;
  std::unique_ptr<serve::SessionManager> manager;
  std::vector<Output> reference;
  double bundle_load_s = 0, generate_s = 0, open_s = 0, warmup_s = 0;
  size_t failed = 0;
  size_t ops = 0;
  double total_s() const { return bundle_load_s + generate_s + open_s + warmup_s; }
};

std::unique_ptr<Setup> RunSetup(const Workload& w, const Args& args) {
  auto setup = std::make_unique<Setup>();
  WallTimer timer;
  setup->system = harness::BuildTrainedSystem(BundleOptions(args.cache_dir));
  setup->bundle_load_s = timer.ElapsedSeconds();

  timer.Reset();
  setup->streams = MakeStreams(setup->system, w, args.seed);
  for (const auto& s : setup->streams) {
    setup->batches.push_back(SplitBatches(s, w.batch));
  }
  setup->generate_s = timer.ElapsedSeconds();

  timer.Reset();
  if (w.tenants > 1) {
    serve::SessionManagerConfig config;
    config.pipeline = PipelineConfig(setup->system.bundle, w);
    setup->manager =
        std::make_unique<serve::SessionManager>(&setup->system.bundle, config);
  }
  setup->open_s = timer.ElapsedSeconds();

  timer.Reset();
  PassTiming warm;
  setup->reference =
      setup->manager ? FleetPass(setup->manager.get(), w, setup->batches,
                                 false, &warm)
                     : SessionPass(setup->system.bundle, w, setup->batches,
                                   &warm);
  setup->warmup_s = timer.ElapsedSeconds();
  std::fprintf(stderr, "setup: load %.3f s, generate %.3f s, open %.3f s, "
               "warm-up %.3f s\n", setup->bundle_load_s, setup->generate_s,
               setup->open_s, setup->warmup_s);
  setup->failed = warm.failed;
  setup->ops = warm.ops;
  return setup;
}

int Run(const Workload& w_in, const Args& args) {
  Workload w = w_in;
  if (args.tiny) w.messages = w.window + 8 * w.batch;
  const bool metrics_on = metrics::Enabled();  // NERGLOB_METRICS, default off

  // The bundle is trained by a separate --train-only process, so training
  // never lands in setup_s or in this process's peak RSS.
  bool trained = false;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(args.cache_dir, ec)) {
    trained = trained || entry.path().extension() == ".ngb";
  }
  if (!trained) {
    std::fprintf(stderr, "no trained bundle in %s; run --train-only first\n",
                 args.cache_dir.c_str());
    return 2;
  }

  std::vector<double> setup_s, load_s, warmup_s;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.reset();  // release the previous setup before timing the next
    setup = RunSetup(w, args);
    setup_s.push_back(setup->total_s());
    load_s.push_back(setup->bundle_load_s);
    warmup_s.push_back(setup->warmup_s);
  }
  const core::ModelBundle& bundle = setup->system.bundle;
  size_t attempted = setup->ops;
  size_t failed = setup->failed;

  std::vector<Output> reference = setup->reference;
  if (!args.corrupt.empty()) Corrupt(args.corrupt, &reference);
  auto check = [&](bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what);
    }
  };
  for (size_t t = 0; t < w.tenants; ++t) {
    check(ExactlyOnceInOrder(setup->streams[t], reference[t]),
          "each message finalized exactly once, in stream order");
  }

  // Timed phase: the served path, metrics off. With --trace 1 it gets half
  // the time; its wall is the base of trace.overhead_frac.
  const double plain_budget = args.trace ? args.seconds / 2 : args.seconds;
  PassTiming plain;
  size_t plain_passes = 0;
  std::vector<double> pass_msgs_per_s;
  WallTimer phase;
  while (plain_passes == 0 || phase.ElapsedSeconds() < plain_budget) {
    const size_t messages_before = plain.timed_messages;
    const double seconds_before = plain.timed_seconds;
    const std::vector<Output> out =
        setup->manager ? FleetPass(setup->manager.get(), w, setup->batches,
                                   false, &plain)
                       : SessionPass(bundle, w, setup->batches, &plain);
    ++plain_passes;
    pass_msgs_per_s.push_back((plain.timed_messages - messages_before) /
                              (plain.timed_seconds - seconds_before));
    check(out == reference, "pass output equals the warm-up pass");
  }

  std::vector<MetricOut> out;
  const double msgs_per_s = Median(pass_msgs_per_s);
  const double p99_ms = Percentile(plain.samples_ms, 0.99);

  if (!args.trace) {
    // Untimed: every stream replayed stage by stage on this thread must
    // reproduce what the served path finalized.
    for (size_t t = 0; t < w.tenants; ++t) {
      StageTimes unused;
      check(MatchesPrefix(StageReplay(bundle, w, setup->batches[t], &unused),
                          reference[t], w.window),
            "stage replay equals the served output");
    }
    out = {
        {"msgs_per_s", msgs_per_s, "1/s"},
        {"latency_p50_ms", Percentile(plain.samples_ms, 0.50), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"macro_f1", MacroF1(setup->streams, reference), "ratio"},
        {"setup_s", Median(setup_s), "s"},
    };
  } else {
    metrics::SetEnabled(true);
    auto& registry = metrics::MetricsRegistry::Global();
    const double traced_budget = args.seconds / 2;
    WallTimer traced_phase;

    // Fleets: the served path again with metrics on, for the serve layer's
    // own instruments and the tracing overhead.
    PassTiming served;
    double serve_batch_s = 0.0;
    size_t served_passes = 0;
    const double served_budget = setup->manager ? traced_budget / 2 : 0.0;
    while (setup->manager &&
           (served_passes == 0 || traced_phase.ElapsedSeconds() < served_budget)) {
      registry.ResetAll();
      const std::vector<Output> got =
          FleetPass(setup->manager.get(), w, setup->batches, true, &served);
      serve_batch_s += StageSeconds("serve_batch");
      ++served_passes;
      check(got == reference, "traced pass output equals the warm-up pass");
    }

    // Every workload: the stage replay of each stream, timed per stage.
    // Counters are read over exactly one replay pass (fixed work).
    StageTimes times;
    std::map<std::string, double> counts;
    size_t replay_passes = 0;
    while (replay_passes == 0 || traced_phase.ElapsedSeconds() < traced_budget) {
      registry.ResetAll();
      for (size_t t = 0; t < w.tenants; ++t) {
        check(MatchesPrefix(StageReplay(bundle, w, setup->batches[t], &times),
                            reference[t], w.window),
              "stage replay equals the served output");
      }
      if (replay_passes++ == 0) {
        counts["lm.sentences"] = CounterValue("stage.lm_encode.calls_total");
        counts["lm.tokens"] = CounterValue("lm.tokens_total");
        counts["tensor.gemm_calls"] = CounterValue("gemm.calls_total");
        counts["tensor.gemm_gflop"] = CounterValue("gemm.flops_total") / 1e9;
        counts["core.mentions_extracted"] =
            CounterValue("pipeline.mentions_extracted_total");
        counts["core.clusters_formed"] =
            CounterValue("pipeline.clusters_formed_total");
        counts["core.false_positives_dropped"] =
            CounterValue("pipeline.false_positives_dropped_total");
        counts["cluster.pools"] = CounterValue("cluster.pools_total");
        counts["cluster.linkage_merges"] =
            CounterValue("cluster.linkage_merges_total");
        counts["pool.chunks"] = CounterValue("pool.chunks_total");
        counts["core.phrase_embed_s"] = StageSeconds("phrase_embed");
        counts["cluster.s"] = StageSeconds("cluster");
        counts["core.classify_s"] = StageSeconds("classify");
      }
    }
    metrics::SetEnabled(metrics_on);

    const double n = static_cast<double>(replay_passes);
    const double layer_sum = times.encode + times.ingest + times.extract +
                             times.refresh + times.evict;
    // Overhead: traced wall over untraced wall for the same work. Fleets
    // compare the served path with metrics on and off; single_stream
    // compares the timed stage replay with StreamingSession::ProcessBatch.
    const double plain_per_pass = plain.total_seconds / plain_passes;
    const double traced_per_pass =
        setup->manager ? served.total_seconds / served_passes
                       : times.batch_wall / n;
    const double shards =
        setup->manager ? static_cast<double>(setup->manager->num_shards()) : 1;
    const serve::SessionManagerStats stats =
        setup->manager ? setup->manager->stats() : serve::SessionManagerStats{};
    out = {
        {"lm.encode_s", times.encode / n, "s"},
        {"lm.sentences", counts["lm.sentences"], "count"},
        {"lm.tokens", counts["lm.tokens"], "count"},
        {"lm.unique_sentence_frac", UniqueSentenceFrac(setup->streams), "ratio"},
        {"lm.batch_unique_frac", BatchUniqueFrac(setup->batches), "ratio"},
        {"tensor.gemm_calls", counts["tensor.gemm_calls"], "count"},
        {"tensor.gemm_gflop", counts["tensor.gemm_gflop"], "GFLOP"},
        {"core.ingest_s", times.ingest / n, "s"},
        {"core.extract_s", times.extract / n, "s"},
        {"core.refresh_s", times.refresh / n, "s"},
        {"core.evict_s", times.evict / n, "s"},
        {"core.dirty_surfaces", times.dirty_surfaces / n, "count"},
        {"core.mentions_extracted", counts["core.mentions_extracted"], "count"},
        {"core.clusters_formed", counts["core.clusters_formed"], "count"},
        {"core.false_positives_dropped", counts["core.false_positives_dropped"],
         "count"},
        {"core.phrase_embed_s", counts["core.phrase_embed_s"], "s"},
        {"cluster.s", counts["cluster.s"], "s"},
        {"core.classify_s", counts["core.classify_s"], "s"},
        {"cluster.pools", counts["cluster.pools"], "count"},
        {"cluster.linkage_merges", counts["cluster.linkage_merges"], "count"},
        {"stream.embed_cache_hit_frac",
         times.embed_hits + times.embed_misses
             ? static_cast<double>(times.embed_hits) /
                   (times.embed_hits + times.embed_misses)
             : 0.0,
         "ratio"},
        {"stream.state_peak_mb", times.state_peak_bytes / 1048576.0, "MB"},
        {"stream.residual_frac",
         times.batch_wall > 0 ? 1.0 - layer_sum / times.batch_wall : 0.0, "ratio"},
        {"serve.worker_busy_frac",
         served.total_seconds > 0
             ? serve_batch_s / (shards * served.total_seconds)
             : 0.0,
         "ratio"},
        {"serve.queue_depth_max", static_cast<double>(served.queue_depth_max),
         "count"},
        {"serve.rejected", static_cast<double>(stats.rejected_batches), "count"},
        {"serve.quarantined", static_cast<double>(stats.quarantined_sessions),
         "count"},
        {"pool.chunks", counts["pool.chunks"], "count"},
        {"setup.bundle_load_s", Median(load_s), "s"},
        {"setup.warmup_s", Median(warmup_s), "s"},
        {"trace.layer_sum_s", layer_sum / n, "s"},
        {"trace.batch_wall_s", times.batch_wall / n, "s"},
        {"trace.overhead_frac",
         plain_per_pass > 0 ? traced_per_pass / plain_per_pass - 1.0 : 0.0,
         "ratio"},
        // Ungated (see README.md): on a shared VM it follows vCPU steal.
        {"latency_p99_ms", p99_ms, "ms"},
    };
    attempted += served.ops;
    failed += served.failed;
  }
  attempted += plain.ops;
  failed += plain.failed;
  if (setup->manager) {
    const serve::SessionManagerStats stats = setup->manager->stats();
    check(stats.quarantined_sessions == 0, "no session quarantined");
  }

  std::printf("workload %s: %zu stream(s) x %zu messages, window %zu, batch %zu; "
              "%zu passes, %zu latency samples, p99 %.3f ms; msgs/s per pass "
              "min %.0f max %.0f\n",
              w.name, w.tenants, w.messages, w.window, w.batch, plain_passes,
              plain.samples_ms.size(), p99_ms,
              *std::min_element(pass_msgs_per_s.begin(), pass_msgs_per_s.end()),
              *std::max_element(pass_msgs_per_s.begin(), pass_msgs_per_s.end()));
  std::printf("digest %s %016llx\n", w.name,
              static_cast<unsigned long long>(Digest(setup->reference)));
  std::printf("knobs threads=%zu simd=%s serve_batch=%d serve_queue_cap=%zu "
              "shards=%zu encode_cache=%s metrics=%s\n",
              Parallelism(), kern::SimdLevelName(kern::ActiveLevel()),
              serve::DefaultBatchEncode() ? 1 : 0, serve::DefaultQueueCapacity(),
              setup->manager ? setup->manager->num_shards() : 0,
              lm::EncodeCache::Global() ? "on" : "off", metrics_on ? "on" : "off");
  setup.reset();  // joins the fleet's shard workers before exit
  PrintResult(failed == 0, attempted, failed, out);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cache-dir DIR [--tiny] [--corrupt spans|order]\n"
                 "       e2e_bench --train-only --cache-dir DIR\n");
    return 2;
  }
  if (args.train_only) {
    // Trains the bundle into the cache, or finds it there.
    harness::BuildTrainedSystem(BundleOptions(args.cache_dir));
    return 0;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) return Run(w, args);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
