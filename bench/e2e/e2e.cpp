// End-to-end training benchmark: one workload per process
// (bench/e2e/README.md describes the workloads and every metric).
//
// The process builds the workload's fixture — graph, PlacementEnvironment,
// EvalService, agent — through the public API and trains the agent for a
// fixed sample budget with rl::TrainAgent, once per seed of a panel of
// kPanelSeeds seeds derived from --seed, each time with a fresh fixture.
// It repeats whole passes over the panel while --seconds allow and
// reports medians over all repeats. With --trace, runs of the first seed
// under the pass-through decorators of timed.h with span recording on
// alternate with untraced ones; the last traced run then replays its
// placements through the simulator and a fresh EvalCache. They yield the
// per-layer metrics and a Chrome trace.
//
// Correctness gate (exit 1, correct=false): every repeat of a panel seed
// must produce the same history digest (a single pass re-runs the first
// seed to check it), train exactly the budget, and find a best placement
// whose noiseless re-evaluation reproduces its per-step time bit for bit;
// traced runs must reproduce their seed's digest too.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics, or the per-layer
// ones with --trace); --out receives the same numbers in more detail.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/e2e/timed.h"
#include "core/eval_cache.h"
#include "graph/graph_io.h"
#include "graph/ingest.h"
#include "models/fuzz_corpus.h"
#include "nn/arena.h"
#include "sim/cluster_ingest.h"

namespace eagle::bench::e2e {
namespace {

namespace metrics = support::metrics;
namespace json = support::json;

enum class AgentKind { kEagle, kPost };

struct Workload {
  const char* name;
  AgentKind agent;
  rl::Algorithm algorithm;
  int samples;          // fixed sample budget of one repeat
  int threads;          // EvalService threads
  const char* cluster;  // sim::ResolveCluster spec ("": default 5 devices)
  const char* faults;   // sim::FaultProfileFromString spec ("": none)
  bool fuzz_graph;      // imported from the generated .eg input file
};

// Each workload leans on a different layer (README.md has the measured
// profile): the EAGLE policy update; many cheap simulator runs; a 40k-op
// graph with heavy setup, large simulator runs and costly placement
// expansion; parallel evaluation with retries under injected faults on a
// hierarchical cluster. Budgets keep one repeat near two seconds here.
constexpr Workload kWorkloads[] = {
    {"gnmt-eagle-ppo", AgentKind::kEagle, rl::Algorithm::kPpo, 20, 1, "", "",
     false},
    {"gnmt-post-ppoce", AgentKind::kPost, rl::Algorithm::kPpoCe, 1000, 1, "",
     "", false},
    {"fuzz40k-post-ppoce", AgentKind::kPost, rl::Algorithm::kPpoCe, 50, 1, "",
     "", true},
    {"gnmt-post-2node8-faults-t4", AgentKind::kPost, rl::Algorithm::kPpoCe,
     1000, 4, "2node8", "0.1", false},
};

// What a run costs depends on what the policy learns (how many samples
// repeat a cached placement, how costly the sampled placements are to
// simulate), and that differs from seed to seed by more than the bounds
// the benchmark must hold. Medians over a panel of training seeds average
// the trajectories out.
constexpr int kPanelSeeds = 6;
// Post's 16 METIS groups (core::MakePostAgent's default).
constexpr int kPostGroups = 16;
// models::BuildFuzzGraph forward ops: 39,572 ops once training ops are
// added. The graph seed is fixed so every run trains on the same graph.
constexpr int kFuzzForwardOps = 20000;
constexpr std::uint64_t kFuzzGraphSeed = 40;
constexpr int kSmokeSamples = 10;
constexpr int kMaxPasses = 10;
// Traced runs in a --trace run, each after an untraced run of the same
// seed; one pair alone swings by ±10% on a busy host.
constexpr int kTracePairs = 3;
// Replays are repeated until they have run this long, so per-op times of
// short streams are not single clock reads.
constexpr double kMinReplaySeconds = 0.05;
// --smoke replays only this many placements.
constexpr std::size_t kSmokeReplayPlacements = 3;

struct Config {
  const Workload* workload = nullptr;
  std::uint64_t seed = 7;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  std::string out;

  int budget() const { return smoke ? kSmokeSamples : workload->samples; }
  std::vector<std::uint64_t> Panel() const {
    std::vector<std::uint64_t> panel;
    for (int k = 0; k < (smoke ? 1 : kPanelSeeds); ++k) {
      panel.push_back(seed * kPanelSeeds + static_cast<std::uint64_t>(k));
    }
    return panel;
  }
  std::string FuzzGraphPath() const { return out + "/fuzz40k.eg"; }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using MetricList = std::vector<Metric>;

// ---------------------------------------------------------------------------
// Fixture: everything built before rl::TrainAgent is called.

struct Fixture {
  graph::OpGraph graph;
  sim::ClusterSpec cluster;
  std::unique_ptr<core::PlacementEnvironment> env;
  std::unique_ptr<core::EvalService> service;
  std::unique_ptr<core::PolicyAgent> agent;
  double graph_s = 0.0;  // models::BuildBenchmark or graph::ImportGraphFile
  double env_s = 0.0;    // cluster + PlacementEnvironment
  double agent_s = 0.0;  // agent construction, METIS included for Post
  double setup_s = 0.0;  // all of the above
};

std::unique_ptr<Fixture> BuildFixture(const Config& config,
                                      std::uint64_t seed) {
  const Workload& w = *config.workload;
  auto fx = std::make_unique<Fixture>();
  support::Stopwatch total;
  support::Stopwatch phase;
  if (w.fuzz_graph) {
    support::StatusOr<graph::OpGraph> imported =
        graph::ImportGraphFile(config.FuzzGraphPath());
    if (!imported.ok()) throw std::runtime_error(imported.status().ToString());
    fx->graph = std::move(imported).value();
  } else {
    fx->graph = models::BuildBenchmark(models::Benchmark::kGNMT);
  }
  fx->graph_s = phase.ElapsedSeconds();

  phase.Reset();
  support::StatusOr<sim::ClusterSpec> cluster = sim::ResolveCluster(w.cluster);
  if (!cluster.ok()) throw std::runtime_error(cluster.status().ToString());
  fx->cluster = std::move(cluster).value();
  core::EnvironmentOptions env_options;
  env_options.faults = sim::FaultProfileFromString(w.faults);
  env_options.faults.seed = seed;
  fx->env = std::make_unique<core::PlacementEnvironment>(
      fx->graph, fx->cluster, env_options);
  fx->env_s = phase.ElapsedSeconds();

  phase.Reset();
  if (w.agent == AgentKind::kEagle) {
    fx->agent = core::MakeEagleAgent(fx->graph, fx->cluster, core::AgentDims{},
                                     seed);
  } else {
    fx->agent =
        core::MakePostAgent(fx->graph, fx->cluster, kPostGroups, seed);
  }
  fx->agent_s = phase.ElapsedSeconds();
  fx->setup_s = total.ElapsedSeconds();
  // Outside setup_s: spawning the pool's threads takes anywhere from
  // microseconds to milliseconds depending on how busy the host is.
  fx->service = std::make_unique<core::EvalService>(*fx->env, w.threads);
  return fx;
}

// ---------------------------------------------------------------------------
// One repeat of the fixed-budget training run.

struct Repeat {
  std::uint64_t seed = 0;
  double setup_s = 0.0;
  double graph_s = 0.0;
  double env_s = 0.0;
  double agent_s = 0.0;
  double train_s = 0.0;
  double samples_per_s = 0.0;
  double time_to_best_s = 0.0;
  int best_sample = 0;
  double best_step_s = 0.0;
  std::uint64_t digest = 0;
  int evaluations = 0;
  int cache_hits = 0;
  int retries = 0;
  int exhausted = 0;
  std::string failure;  // empty when every check passed
};

// FNV-1a over 64-bit words.
struct Fnv64 {
  std::uint64_t h = 1469598103934665603ULL;
  void Add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

// Every sample's measured per-step time, bit for bit, plus the best
// placement's devices.
std::uint64_t HistoryDigest(const rl::TrainResult& result) {
  Fnv64 fnv;
  for (const rl::HistoryPoint& point : result.history) {
    fnv.Add(std::bit_cast<std::uint64_t>(point.per_step_seconds));
  }
  for (sim::DeviceId device : result.best_placement.devices()) {
    fnv.Add(static_cast<std::uint64_t>(device));
  }
  return fnv.h;
}

std::string Hex(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// What the traced repeat collects besides its Repeat.
struct Probe {
  bool replay = true;  // also replay the run's placements afterwards
  PlacementLog log;
  int rounds = 0;
  int updates = 0;
  MetricList layers;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Lower quartile as the median of the better half. It summarizes the
// panel's best per-step times: a short EAGLE run now and then finds no
// good placement at all, which moves the panel's median, while its
// minimum rides on the one luckiest seed.
double LowerHinge(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  values.resize((values.size() + 1) / 2);
  return Median(values);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double value : values) total += value;
  return total;
}

// Nearest-rank quantile.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double SpanSum(const metrics::Snapshot& delta, const std::string& name) {
  const auto it = delta.histograms.find("span." + name);
  return it == delta.histograms.end() ? 0.0 : it->second.sum;
}

double SpanCount(const metrics::Snapshot& delta, const std::string& name) {
  const auto it = delta.histograms.find("span." + name);
  return it == delta.histograms.end() ? 0.0
                                      : static_cast<double>(it->second.count);
}

// A counter a later change deletes (or never registers) reads as 0.
double CounterDelta(const metrics::Snapshot& delta, const std::string& name) {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double HistogramQuantile(const metrics::Snapshot& delta,
                         const std::string& name, double q) {
  const auto it = delta.histograms.find(name);
  if (it == delta.histograms.end() || it->second.count == 0) return 0.0;
  return it->second.Quantile(q);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// Replays the run's distinct placements through the session's simulator:
// per-run latency quantiles and simulated events per second.
void ReplaySimulator(const sim::ExecutionSimulator& simulator,
                     const std::vector<sim::Placement>& placements,
                     MetricList& out) {
  std::vector<double> run_ms;
  run_ms.reserve(placements.size());
  metrics::Counter* events = metrics::GetCounter("sim.events");
  const std::int64_t events_before = events->value();
  double total_s = 0.0;
  for (const sim::Placement& placement : placements) {
    EAGLE_SPAN("bench.replay.sim");
    support::Stopwatch clock;
    simulator.Run(placement);
    const double seconds = clock.ElapsedSeconds();
    run_ms.push_back(seconds * 1e3);
    total_s += seconds;
  }
  out.push_back({"sim.run_ms_p50", Quantile(run_ms, 0.5), "ms"});
  out.push_back({"sim.run_ms_p99", Quantile(run_ms, 0.99), "ms"});
  out.push_back(
      {"sim.events_per_s",
       Ratio(static_cast<double>(events->value() - events_before), total_s),
       "1/s"});
}

// Replays the run's placement stream, in order, through a fresh EvalCache:
// a Lookup per placement and an Insert per miss, as the environment does.
double ReplayCacheOpMicros(const PlacementLog& log, bool once) {
  const sim::EvalResult placeholder;
  sim::EvalResult found;
  std::int64_t ops = 0;
  support::Stopwatch clock;
  do {
    EAGLE_SPAN("bench.replay.cache");
    core::EvalCache cache;
    for (std::size_t slot : log.stream) {
      const sim::Placement& placement = log.distinct[slot];
      ++ops;
      if (!cache.Lookup(placement, &found)) {
        cache.Insert(placement, placeholder);
        ++ops;
      }
    }
  } while (!once && clock.ElapsedSeconds() < kMinReplaySeconds);
  return Ratio(clock.ElapsedSeconds() * 1e6, static_cast<double>(ops));
}

// Post's METIS grouping on its own, outside agent construction.
double TimeMetis(const graph::OpGraph& graph, std::uint64_t seed) {
  EAGLE_SPAN("bench.replay.metis");
  partition::MetisOptions options;
  options.num_parts = kPostGroups;
  options.seed = seed;
  support::Stopwatch clock;
  partition::MetisPartition(graph, options);
  return clock.ElapsedSeconds();
}

// Per-layer metrics of the traced repeat, read from the registry delta
// over its TrainAgent call, then the replays.
void CollectLayers(const Config& config, const Fixture& fx,
                   const rl::TrainResult& result, const Repeat& rep,
                   const metrics::Snapshot& delta,
                   const nn::ArenaStats& arena, Probe& probe) {
  MetricList& out = probe.layers;
  const double update_s = SpanSum(delta, "train.update");
  const double sample_s = SpanSum(delta, "train.sample");
  const double eval_s = SpanSum(delta, "train.eval");
  const double reduce_s = SpanSum(delta, "train.reduce");
  const double score_s = SpanSum(delta, "bench.agent.score");
  const double adam_s = SpanSum(delta, "adam.step");
  const double batch_s = SpanSum(delta, "bench.eval.batch");
  out.push_back({"rl.update_s", update_s, "s"});
  out.push_back({"rl.sample_s", sample_s, "s"});
  out.push_back({"rl.eval_s", eval_s, "s"});
  out.push_back({"rl.reduce_s", reduce_s, "s"});
  out.push_back({"rl.phase_share",
                 Ratio(update_s + sample_s + eval_s + reduce_s, rep.train_s),
                 "ratio"});
  out.push_back({"rl.rounds", static_cast<double>(probe.rounds), "count"});
  out.push_back({"rl.updates", static_cast<double>(probe.updates), "count"});
  out.push_back({"rl.invalid_share",
                 Ratio(result.invalid_samples, result.total_samples),
                 "ratio"});
  out.push_back({"rl.update.self_s", update_s - score_s - adam_s, "s"});
  out.push_back({"nn.adam_step_s", adam_s, "s"});
  out.push_back({"nn.arena.fresh_allocs",
                 static_cast<double>(arena.fresh_allocs), "count"});
  out.push_back(
      {"nn.arena.pool_hits", static_cast<double>(arena.pool_hits), "count"});
  out.push_back(
      {"core.agent.sample_s", SpanSum(delta, "bench.agent.sample"), "s"});
  out.push_back({"core.agent.sample_calls",
                 SpanCount(delta, "bench.agent.sample"), "count"});
  out.push_back({"core.agent.score_s", score_s, "s"});
  out.push_back({"core.agent.score_calls",
                 SpanCount(delta, "bench.agent.score"), "count"});
  out.push_back({"core.agent.to_placement_s",
                 SpanSum(delta, "bench.agent.to_placement"), "s"});
  out.push_back({"core.eval.batch_s", batch_s, "s"});
  out.push_back({"core.eval.parallel_eff",
                 Ratio(SpanSum(delta, "eval.ticket"),
                       config.workload->threads * batch_s),
                 "ratio"});
  out.push_back(
      {"core.eval.queue_wait_p50_ms",
       1e3 * HistogramQuantile(delta, "eval.queue_wait_seconds", 0.5), "ms"});
  out.push_back(
      {"core.eval.queue_wait_p99_ms",
       1e3 * HistogramQuantile(delta, "eval.queue_wait_seconds", 0.99), "ms"});
  out.push_back({"core.env.cache_hit_ratio",
                 Ratio(rep.cache_hits, rep.evaluations), "ratio"});
  out.push_back(
      {"core.env.retries", static_cast<double>(rep.retries), "count"});
  out.push_back(
      {"core.env.exhausted", static_cast<double>(rep.exhausted), "count"});
  out.push_back({"sim.runs", CounterDelta(delta, "sim.runs"), "count"});
  out.push_back({"sim.events", CounterDelta(delta, "sim.events"), "count"});
  if (!probe.replay) return;

  std::vector<sim::Placement> replayed = probe.log.distinct;
  if (config.smoke && replayed.size() > kSmokeReplayPlacements) {
    replayed.resize(kSmokeReplayPlacements);
  }
  ReplaySimulator(fx.env->session().simulator(), replayed, out);
  out.push_back({"core.cache.op_us",
                 ReplayCacheOpMicros(probe.log, config.smoke), "us"});
  out.push_back({"partition.metis_s", TimeMetis(fx.graph, rep.seed), "s"});
  out.push_back(
      {"graph.ops", static_cast<double>(fx.graph.num_ops()), "count"});
  out.push_back(
      {"graph.edges", static_cast<double>(fx.graph.num_edges()), "count"});
}

Repeat RunRepeat(const Config& config, std::uint64_t seed, Probe* probe) {
  const Workload& w = *config.workload;
  const int budget = config.budget();
  Repeat rep;
  rep.seed = seed;
  std::unique_ptr<Fixture> fx;
  {
    EAGLE_SPAN("bench.setup");
    fx = BuildFixture(config, seed);
  }
  rep.setup_s = fx->setup_s;
  rep.graph_s = fx->graph_s;
  rep.env_s = fx->env_s;
  rep.agent_s = fx->agent_s;

  rl::TrainerOptions options = PaperTrainerOptions(w.algorithm, budget, seed);
  core::PolicyAgent* agent = fx->agent.get();
  core::BatchEvaluator* evaluator = fx->service.get();
  std::optional<TimedAgent> timed_agent;
  std::optional<TimedEvaluator> timed_evaluator;
  if (probe != nullptr) {
    timed_agent.emplace(*agent, probe->log);
    timed_evaluator.emplace(*evaluator);
    agent = &*timed_agent;
    evaluator = &*timed_evaluator;
    options.on_round = [probe](const rl::RoundStats& stats) {
      ++probe->rounds;
      if (stats.updated_policy) ++probe->updates;
    };
  }
  options.evaluator = evaluator;

  std::vector<double> progress_s;
  progress_s.reserve(static_cast<std::size_t>(budget));
  support::Stopwatch clock;
  const rl::ProgressCallback on_progress = [&](const rl::HistoryPoint&) {
    progress_s.push_back(clock.ElapsedSeconds());
  };
  const metrics::Snapshot before = metrics::TakeSnapshot();
  const nn::ArenaStats arena_before = nn::ArenaStatsSnapshot();
  rl::TrainResult result;
  clock.Reset();
  {
    EAGLE_SPAN("bench.train");
    result = rl::TrainAgent(*agent, *fx->env, options, on_progress);
  }
  rep.train_s = clock.ElapsedSeconds();
  nn::ArenaStats arena = nn::ArenaStatsSnapshot();
  const metrics::Snapshot delta = metrics::TakeSnapshot().DeltaSince(before);
  arena.fresh_allocs -= arena_before.fresh_allocs;
  arena.pool_hits -= arena_before.pool_hits;

  rep.samples_per_s = budget / rep.train_s;
  rep.digest = HistoryDigest(result);
  rep.best_step_s = result.best_per_step_seconds;
  rep.evaluations = fx->env->evaluations();
  rep.cache_hits = fx->env->cache_hits();
  rep.retries = fx->env->retries();
  rep.exhausted = fx->env->exhausted_evaluations();

  if (result.total_samples != budget ||
      result.history.size() != progress_s.size()) {
    rep.failure = "trained " + std::to_string(result.total_samples) +
                  " samples, budget " + std::to_string(budget);
    return rep;
  }
  if (!result.found_valid) {
    rep.failure = "no valid placement found";
    return rep;
  }
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    if (result.history[i].best_so_far_seconds == result.best_per_step_seconds) {
      rep.best_sample = result.history[i].sample_index;
      rep.time_to_best_s = progress_s[i];
      break;
    }
  }
  const sim::EvalResult recheck =
      fx->env->session().Evaluate(result.best_placement, nullptr);
  if (!recheck.valid ||
      std::bit_cast<std::uint64_t>(recheck.true_per_step_seconds) !=
          std::bit_cast<std::uint64_t>(rep.best_step_s)) {
    rep.failure = "best placement re-evaluates to " +
                  json::Num(recheck.true_per_step_seconds) +
                  " s/step, run reported " + json::Num(rep.best_step_s);
    return rep;
  }
  if (probe != nullptr) {
    CollectLayers(config, *fx, result, rep, delta, arena, *probe);
  }
  // Hand the repeat's freed heap back to the OS, so peak RSS is one
  // training run's peak rather than that plus what earlier repeats left
  // fragmented in the allocator.
  fx.reset();
  malloc_trim(0);
  return rep;
}

// ---------------------------------------------------------------------------
// Input generation (--prepare): the fuzz workload's graph file is written
// by a separate process, so the workload process only imports it and its
// peak RSS is the program's, not the generator's.

void PrepareInputs(const Config& config) {
  if (!config.workload->fuzz_graph) return;
  models::FuzzGraphConfig fuzz;
  fuzz.num_ops = kFuzzForwardOps;
  support::Rng rng(kFuzzGraphSeed);
  const graph::OpGraph graph = models::BuildFuzzGraph(fuzz, rng);
  if (!graph::SaveTextFile(graph, config.FuzzGraphPath())) {
    throw std::runtime_error("cannot write " + config.FuzzGraphPath());
  }
}

// ---------------------------------------------------------------------------
// Reporting.

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string MetricsJson(const MetricList& list) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < list.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json::Escape(list[i].name)
       << "\": {\"value\": " << json::Num(list[i].value) << ", \"unit\": \""
       << json::Escape(list[i].unit) << "\"}";
  }
  os << "}";
  return os.str();
}

template <typename T>
std::vector<double> Collect(const std::vector<Repeat>& repeats,
                            T Repeat::*field) {
  std::vector<double> values;
  for (const Repeat& rep : repeats) {
    values.push_back(static_cast<double>(rep.*field));
  }
  return values;
}

std::string ValuesJson(const std::vector<double>& values) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? ", " : "") << json::Num(values[i]);
  }
  os << "]";
  return os.str();
}

void PrintMetrics(const std::string& workload, const char* title,
                  const MetricList& list) {
  std::printf("%s — %s\n", workload.c_str(), title);
  for (const Metric& m : list) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool WriteText(const std::string& path, const std::string& text) {
  return support::WriteFileAtomic(path, [&](std::ostream& os) {
    os << text;
    return static_cast<bool>(os);
  });
}

int Main(int argc, char** argv) {
  support::ArgParser args(
      "End-to-end training benchmark: one workload per process "
      "(bench/e2e/run.sh drives it)");
  args.AddString("workload", "", "workload name");
  args.AddInt("seed", 7, "seed the panel of training seeds derives from");
  args.AddDouble("seconds", 15.0,
                 "repeat passes over the seed panel for this long (at least "
                 "one pass)");
  args.AddBool("trace", false,
               "add a traced repeat: per-layer metrics and a Chrome trace");
  args.AddBool("smoke", false,
               "10-sample budget, one seed, one repeat, short replays");
  args.AddBool("prepare", false, "write the workload's input files and exit");
  args.AddString("out", "build-e2e/out",
                 "directory for inputs, results and traces");
  if (!args.Parse(argc, argv)) return 0;

  Config config;
  config.workload = FindWorkload(args.GetString("workload"));
  if (config.workload == nullptr) {
    std::string names;
    for (const Workload& w : kWorkloads) names += std::string(" ") + w.name;
    throw std::runtime_error("unknown --workload '" +
                             args.GetString("workload") + "'; one of:" + names);
  }
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  config.seconds = args.GetDouble("seconds");
  config.trace = args.GetBool("trace");
  config.smoke = args.GetBool("smoke");
  config.out = args.GetString("out");
  if (args.GetBool("prepare")) {
    PrepareInputs(config);
    return 0;
  }
  const std::string name = config.workload->name;
  const std::vector<std::uint64_t> panel = config.Panel();

  std::vector<std::string> failures;
  int runs = 0;
  const auto run = [&](std::uint64_t seed, Probe* probe) {
    Repeat rep = RunRepeat(config, seed, probe);
    ++runs;
    std::printf("%s seed %llu%s: setup %.4f s, train %.3f s (%.2f samples/s),"
                " best %.6g s/step at sample %d after %.3f s, cache hits "
                "%d/%d, digest %s\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                probe != nullptr ? " traced" : "", rep.setup_s, rep.train_s,
                rep.samples_per_s, rep.best_step_s, rep.best_sample,
                rep.time_to_best_s, rep.cache_hits, rep.evaluations,
                Hex(rep.digest).c_str());
    std::fflush(stdout);
    if (!rep.failure.empty()) {
      failures.push_back("seed " + std::to_string(seed) + ": " + rep.failure);
    }
    return rep;
  };

  // Whole passes over the panel while --seconds allow (the next pass is
  // predicted from the mean so far).
  std::vector<Repeat> repeats;
  std::vector<std::uint64_t> digests;
  support::Stopwatch measured;
  for (int pass = 1;; ++pass) {
    for (std::uint64_t seed : panel) {
      repeats.push_back(run(seed, nullptr));
      if (pass == 1) digests.push_back(repeats.back().digest);
    }
    const double elapsed = measured.ElapsedSeconds();
    if (config.smoke || pass == kMaxPasses ||
        elapsed + elapsed / pass > config.seconds) {
      break;
    }
  }
  for (std::size_t i = panel.size(); i < repeats.size(); ++i) {
    if (repeats[i].digest != digests[i % panel.size()]) {
      failures.push_back("seed " + std::to_string(repeats[i].seed) +
                         " repeats disagree on the history digest");
    }
  }
  // Runs of the first panel seed outside the passes: they must reproduce
  // its digest, and they time the untraced side of trace_overhead.
  const auto rerun_first = [&](Probe* probe) {
    Repeat rep = run(panel[0], probe);
    if (rep.failure.empty() && rep.digest != digests[0]) {
      failures.push_back(std::string(probe != nullptr ? "traced" : "repeat") +
                         " digest " + Hex(rep.digest) + " of seed " +
                         std::to_string(panel[0]) + " differs from " +
                         Hex(digests[0]));
    }
    return rep;
  };
  if (!config.smoke && repeats.size() == panel.size() && !config.trace) {
    rerun_first(nullptr);
  }
  const double peak_rss_mb = PeakRssMb();

  // The run digest folds the panel's digests in order.
  Fnv64 run_digest;
  for (std::uint64_t digest : digests) run_digest.Add(digest);
  const std::vector<Repeat> first_pass(repeats.begin(),
                                       repeats.begin() + panel.size());
  const double samples_per_s = Median(Collect(repeats, &Repeat::samples_per_s));
  MetricList e2e = {
      {"setup_s", Median(Collect(repeats, &Repeat::setup_s)), "s"},
      {"samples_per_s", samples_per_s, "1/s"},
      {"best_step_s", LowerHinge(Collect(first_pass, &Repeat::best_step_s)),
       "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };

  // Per-layer metrics: the last traced repeat plus medians of the
  // untraced repeats for what tracing cannot change (setup pieces, time
  // to best). Traced runs of the first seed sit between untraced ones;
  // trace_overhead is the median over traced runs of their rate against
  // the mean of their two neighbours, which cancels the host's slow drift
  // (--smoke traces once and compares with its single repeat).
  MetricList layers;
  std::string trace_path;
  if (config.trace) {
    const int pairs = config.smoke ? 1 : kTracePairs;
    std::vector<double> untraced = {config.smoke
                                        ? repeats.front().samples_per_s
                                        : rerun_first(nullptr).samples_per_s};
    std::vector<double> overheads;
    Probe probe;
    for (int i = 1; i <= pairs; ++i) {
      probe = Probe{};
      probe.replay = i == pairs;
      metrics::EnableProfiling(true);
      const double traced = rerun_first(&probe).samples_per_s;
      metrics::EnableProfiling(false);
      const double before = untraced.back();
      if (!config.smoke) {
        untraced.push_back(rerun_first(nullptr).samples_per_s);
      }
      overheads.push_back(Ratio(traced, 0.5 * (before + untraced.back())));
    }
    layers = std::move(probe.layers);
    const double graph_s = Median(Collect(repeats, &Repeat::graph_s));
    const bool imported = config.workload->fuzz_graph;
    layers.insert(
        layers.end(),
        {{"core.agent_build_s", Median(Collect(repeats, &Repeat::agent_s)),
          "s"},
         {"core.env_build_s", Median(Collect(repeats, &Repeat::env_s)), "s"},
         {"graph.import_s", imported ? graph_s : 0.0, "s"},
         {"models.build_s", imported ? 0.0 : graph_s, "s"},
         {"time_to_best_s", Median(Collect(repeats, &Repeat::time_to_best_s)),
          "s"},
         {"failed_share",
          failures.empty() ? Ratio(Sum(Collect(repeats, &Repeat::exhausted)),
                                   Sum(Collect(repeats, &Repeat::evaluations)))
                           : 1.0,
          "ratio"},
         {"trace_overhead", Median(overheads), "ratio"}});
    trace_path = config.out + "/trace_" + name + ".json";
    if (!WriteText(trace_path,
                   metrics::SpansToChromeTrace(metrics::SnapshotSpans()))) {
      failures.push_back("cannot write " + trace_path);
    }
  }

  const bool correct = failures.empty();
  const long attempted = static_cast<long>(runs) * config.budget();
  const long failed = correct ? 0 : attempted;

  PrintMetrics(name, "end to end (median over repeats)", e2e);
  if (config.trace) PrintMetrics(name, "per layer (traced repeat)", layers);
  std::printf("%s digest %s over %zu seeds x %zu repeats; %s\n", name.c_str(),
              Hex(run_digest.h).c_str(), panel.size(),
              repeats.size() / panel.size(),
              correct ? "all checks passed" : "CHECKS FAILED");
  for (const std::string& failure : failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("%s trace: %s (open in Perfetto)\n", name.c_str(),
                trace_path.c_str());
  }

  std::ostringstream detail;
  detail << "{\"workload\": \"" << name << "\", \"seed\": " << config.seed
         << ", \"smoke\": " << (config.smoke ? "true" : "false")
         << ", \"budget\": " << config.budget()
         << ", \"threads\": " << config.workload->threads
         << ", \"repeats\": " << repeats.size() << ", \"digest\": \""
         << Hex(run_digest.h) << "\", \"correct\": "
         << (correct ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    detail << (i ? ", " : "") << "\"" << json::Escape(failures[i]) << "\"";
  }
  detail << "], \"end_to_end\": " << MetricsJson(e2e)
         << ", \"per_layer\": " << MetricsJson(layers)
         << ", \"per_repeat\": {\"seed\": "
         << ValuesJson(Collect(repeats, &Repeat::seed))
         << ", \"setup_s\": " << ValuesJson(Collect(repeats, &Repeat::setup_s))
         << ", \"train_s\": " << ValuesJson(Collect(repeats, &Repeat::train_s))
         << ", \"samples_per_s\": "
         << ValuesJson(Collect(repeats, &Repeat::samples_per_s))
         << ", \"best_step_s\": "
         << ValuesJson(Collect(repeats, &Repeat::best_step_s))
         << ", \"best_sample\": "
         << ValuesJson(Collect(repeats, &Repeat::best_sample))
         << ", \"time_to_best_s\": "
         << ValuesJson(Collect(repeats, &Repeat::time_to_best_s))
         << ", \"cache_hits\": "
         << ValuesJson(Collect(repeats, &Repeat::cache_hits)) << "}}\n";
  const std::string detail_path = config.out + "/" + name + ".json";
  if (!WriteText(detail_path, detail.str())) {
    std::fprintf(stderr, "cannot write %s\n", detail_path.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              MetricsJson(config.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace eagle::bench::e2e

// Bad flags and unreadable inputs exit 2 without a result line.
int main(int argc, char** argv) {
  try {
    return eagle::bench::e2e::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "eagle_e2e: %s\n", error.what());
    return 2;
  }
}
