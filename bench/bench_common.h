// Shared plumbing for the paper-reproduction benches (Tables I–IV,
// Figs. 2, 5–7): flag parsing, agent construction, training-run drivers
// and result formatting.
//
// Every bench accepts:
//   --samples=N     placements evaluated per training run (default sized
//                   for a single CPU core; the paper's agents saw a few
//                   hundred placements in their 3.5–6 h budgets too)
//   --seed=S        base RNG seed (tables regenerate identically per seed)
//   --full          paper-scale agent dimensions (256 groups, 512 LSTM)
//   --models=a,b    subset of inception_v3,gnmt,bert
//   --csv=prefix    also write <prefix><name>.csv next to stdout output
//   --threads=N     evaluation threads (core::EvalService); results are
//                   bit-identical at any thread count
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/load_graphs.h"
#include "core/eagle_agent.h"
#include "core/env.h"
#include "core/eval_service.h"
#include "core/expert_policies.h"
#include "core/policy.h"
#include "models/zoo.h"
#include "partition/fluid.h"
#include "partition/metis_like.h"
#include "rl/trainer.h"
#include "support/args.h"
#include "support/atomic_file.h"
#include "support/json.h"
#include "support/log.h"
#include "support/metrics.h"
#include "support/stopwatch.h"
#include "support/table.h"
#include "support/telemetry.h"

namespace eagle::bench {

struct BenchConfig {
  int samples = 250;
  std::uint64_t seed = 7;
  bool full = false;
  // Evaluation threads per training run (core::EvalService). Changing
  // this changes wall-clock time only, never results.
  int threads = 1;
  std::vector<models::Benchmark> benchmarks;
  std::string csv_prefix;
  // Fault-injected measurement (sim::FaultProfileFromString syntax;
  // all-zero disables).
  sim::FaultProfile faults;
  // Cluster topology every bench row runs against: a builtin name
  // (default, 2node8, mixed) or a .ec/.json spec file resolved through
  // sim::ResolveCluster. The raw flag value is kept for labelling.
  std::string cluster_name;
  sim::ClusterSpec cluster;
  // Crash-safe training checkpoints: when checkpoint_dir is set every
  // training run snapshots to <dir>/<model>_<agent>_<algorithm>.ckpt;
  // resume restores the snapshot and continues.
  std::string checkpoint_dir;
  bool resume = false;
  // Run telemetry artifacts: --telemetry-out streams one JSON line per
  // training round (consumed by tools/metrics_report); --profile-out
  // writes a Chrome-trace profile of the trainer's phase spans on exit
  // (same viewer as tools/trace_placement schedules). Both are pure
  // observers — results stay bit-identical with them enabled.
  std::string telemetry_out;
  std::string profile_out;

  core::AgentDims dims() const {
    return full ? core::AgentDims::PaperScale() : core::AgentDims{};
  }
};

inline void AddCommonFlags(support::ArgParser& args, int default_samples) {
  args.AddInt("samples", default_samples, "placements per training run");
  args.AddInt("seed", 7, "base RNG seed");
  args.AddBool("full", false, "paper-scale agent dimensions");
  args.AddString("models", "inception_v3,gnmt,bert",
                 "comma-separated benchmark subset");
  args.AddString("csv", "", "CSV output path prefix (empty: no CSV)");
  args.AddInt("threads", 1,
              "evaluation threads (0: hardware count; results are "
              "bit-identical at any thread count)");
  args.AddBool("verbose", false, "log progress per minibatch");
  args.AddString("faults", "",
                 "fault profile, e.g. 0.1 or crash=0.1,down=0.02,"
                 "straggler=0.2,slowdown=3,link=0.1,linkfactor=4,seed=9");
  args.AddString("cluster", "",
                 "cluster topology: default, 2node8, mixed, or a "
                 ".ec/.json cluster-spec file; malformed specs exit 2 "
                 "with a file:line:column diagnostic");
  args.AddString("checkpoint-dir", "",
                 "directory for crash-safe training checkpoints");
  args.AddBool("resume", false,
               "resume training runs from --checkpoint-dir snapshots");
  args.AddString("telemetry-out", "",
                 "JSONL run telemetry path (one line per training round; "
                 "summarize with metrics_report)");
  args.AddString("profile-out", "",
                 "Chrome-trace profile of trainer phase spans (open in "
                 "Perfetto / chrome://tracing)");
}

// Benches track artifact-write failures (CSV, history, telemetry,
// profile) here and exit non-zero through Finish() so a full disk never
// looks like a successful run.
inline int& ArtifactFailures() {
  static int failures = 0;
  return failures;
}

inline void ReportArtifactFailure(const std::string& what,
                                  const std::string& path) {
  ++ArtifactFailures();
  EAGLE_LOG(Error) << "failed to write " << what << " to '" << path << "'";
}

inline BenchConfig ReadCommonFlags(const support::ArgParser& args) {
  BenchConfig config;
  config.samples = static_cast<int>(args.GetInt("samples"));
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  config.full = args.GetBool("full");
  config.csv_prefix = args.GetString("csv");
  config.threads = static_cast<int>(args.GetInt("threads"));
  if (config.threads <= 0) {
    config.threads = support::ThreadPool::HardwareThreads();
  }
  // Flag values are untrusted input: a bad --faults or --models value is
  // one stderr line and exit 2, as a malformed --cluster spec is.
  config.faults = args.GetParsed("faults", sim::FaultProfileFromString);
  config.cluster_name = args.GetString("cluster");
  config.cluster = ResolveClusterOrExit(config.cluster_name);
  config.checkpoint_dir = args.GetString("checkpoint-dir");
  config.resume = args.GetBool("resume");
  config.benchmarks = args.GetParsed("models", [](const std::string& list) {
    std::vector<models::Benchmark> benchmarks;
    for (const std::string& name : support::SplitList(list)) {
      benchmarks.push_back(models::BenchmarkFromName(name));
    }
    return benchmarks;
  });
  if (args.GetBool("verbose")) {
    support::SetLogLevel(support::LogLevel::kDebug);
  }
  config.telemetry_out = args.GetString("telemetry-out");
  config.profile_out = args.GetString("profile-out");
  if (!config.telemetry_out.empty() &&
      !support::telemetry::OpenRunLog(config.telemetry_out)) {
    ReportArtifactFailure("telemetry", config.telemetry_out);
  }
  if (!config.profile_out.empty()) {
    support::metrics::EnableProfiling(true);
  }
  return config;
}

// Per-benchmark fixture: graph + cluster + environment.
struct BenchContext {
  models::Benchmark benchmark;
  graph::OpGraph graph;
  sim::ClusterSpec cluster;
  core::EnvironmentOptions env_options;
  // Serves direct evaluations. TrainOnBenchmark replaces it with a fresh
  // environment for every training run, which stays here afterwards so
  // callers can read that run's fault counters.
  std::unique_ptr<core::PlacementEnvironment> env;

  void ResetEnvironment() {
    env = std::make_unique<core::PlacementEnvironment>(graph, cluster,
                                                       env_options);
  }
};

// When `config` is given its fault profile is installed into the
// environment (retries with backoff, graceful degradation — see
// core::EnvironmentOptions) and its --cluster topology is used; a null
// config keeps the fault-free default cluster.
inline BenchContext MakeContext(models::Benchmark benchmark,
                                const BenchConfig* config = nullptr) {
  BenchContext context;
  context.benchmark = benchmark;
  context.graph = models::BuildBenchmark(benchmark);
  context.cluster =
      config != nullptr ? config->cluster : sim::MakeDefaultCluster();
  if (config != nullptr) context.env_options.faults = config->faults;
  context.ResetEnvironment();
  return context;
}

// Paper hyperparameters (§IV-C) with the bench's sample budget.
inline rl::TrainerOptions PaperTrainerOptions(rl::Algorithm algorithm,
                                              int samples,
                                              std::uint64_t seed) {
  rl::TrainerOptions options;
  options.algorithm = algorithm;
  options.total_samples = samples;
  options.minibatch_size = 10;
  options.ppo.clip_epsilon = 0.3;
  options.ppo.epochs = 4;
  options.ppo.entropy_coef = 0.01;
  options.ce.num_elites = 5;
  options.ce_interval = 50;
  options.adam.lr = 0.01;
  options.adam.clip_norm = 1.0;
  options.seed = seed;
  return options;
}

// Serializes a metrics snapshot (usually a delta) into JSON object
// members: "counters":{...},"gauges":{...},"histograms":{...}. Round
// lines keep histograms compact (count/sum); run_end lines carry the
// full bucket counts so metrics_report can interpolate run-level
// quantiles.
inline void AppendSnapshotJson(std::ostringstream& os,
                               const support::metrics::Snapshot& snap,
                               bool full_histograms) {
  namespace json = support::json;
  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    os << (first ? "" : ",") << "\"" << json::Escape(name) << "\":" << value;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    os << (first ? "" : ",") << "\"" << json::Escape(name)
       << "\":" << json::Num(value);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    os << (first ? "" : ",") << "\"" << json::Escape(name)
       << "\":{\"count\":" << hist.count << ",\"sum\":" << json::Num(hist.sum);
    if (full_histograms) {
      os << ",\"min\":" << json::Num(hist.min)
         << ",\"max\":" << json::Num(hist.max) << ",\"bounds\":[";
      for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
        os << (i ? "," : "") << json::Num(hist.bounds[i]);
      }
      os << "],\"counts\":[";
      for (std::size_t i = 0; i < hist.counts.size(); ++i) {
        os << (i ? "," : "") << hist.counts[i];
      }
      os << "]";
    }
    os << "}";
    first = false;
  }
  os << "}";
}

// Trains `agent` on the context's benchmark under the bench's flags
// (samples, seed, threads, faults, checkpoints, telemetry).
inline rl::TrainResult TrainOnBenchmark(core::PolicyAgent& agent,
                                        BenchContext& context,
                                        rl::Algorithm algorithm,
                                        const BenchConfig& config) {
  namespace json = support::json;
  namespace telemetry = support::telemetry;
  support::Stopwatch stopwatch;
  auto options = PaperTrainerOptions(algorithm, config.samples, config.seed);
  if (!config.checkpoint_dir.empty()) {
    options.checkpoint_dir = config.checkpoint_dir;
    options.checkpoint_name =
        std::string(models::BenchmarkName(context.benchmark)) + "_" +
        agent.name() + "_" + rl::AlgorithmName(algorithm);
    options.resume = config.resume;
  }
  // A fresh environment per run: its fault stream and counters belong to
  // this run alone, so the run's checkpoint restores exactly them and a
  // resumed run replays the uninterrupted one.
  context.ResetEnvironment();
  core::EvalService service(*context.env, config.threads);
  options.evaluator = &service;

  // JSONL run telemetry: a run_start header, one line per round (counter
  // and span-histogram deltas), and a run_end trailer with the full
  // per-run histogram buckets. Observers only — the callback reads
  // finished RoundStats and never feeds anything back into training.
  const std::string model_name = models::BenchmarkName(context.benchmark);
  const std::string agent_name = agent.name();
  const std::string algo_name = rl::AlgorithmName(algorithm);
  std::shared_ptr<support::metrics::Snapshot> run_start_snap;
  // Where the previous run ended (empty before the first): run_start
  // carries the deltas since, i.e. the graph import, partitioning and
  // agent construction that set this run up.
  static support::metrics::Snapshot last_run_end;
  if (telemetry::Enabled()) {
    run_start_snap = std::make_shared<support::metrics::Snapshot>(
        support::metrics::TakeSnapshot());
    auto prev = std::make_shared<support::metrics::Snapshot>(*run_start_snap);
    std::ostringstream os;
    os << "{\"event\":\"run_start\",\"model\":\"" << json::Escape(model_name)
       << "\",\"agent\":\"" << json::Escape(agent_name)
       << "\",\"algorithm\":\"" << json::Escape(algo_name)
       << "\",\"samples\":" << options.total_samples
       << ",\"minibatch\":" << options.minibatch_size
       << ",\"threads\":" << service.num_threads()
       << ",\"seed\":" << options.seed << ",\"setup\":{";
    AppendSnapshotJson(os, run_start_snap->DeltaSince(last_run_end),
                       /*full_histograms=*/false);
    os << "}}";
    telemetry::WriteLine(os.str());
    options.on_round = [prev](const rl::RoundStats& stats) {
      support::metrics::Snapshot now = support::metrics::TakeSnapshot();
      const support::metrics::Snapshot delta = now.DeltaSince(*prev);
      *prev = std::move(now);
      std::ostringstream line;
      line << "{\"event\":\"round\",\"round\":" << stats.round_index
           << ",\"samples_in_round\":" << stats.samples_in_round
           << ",\"total_samples\":" << stats.total_samples
           << ",\"sim_hours\":" << json::Num(stats.virtual_hours)
           << ",\"best_per_step_s\":"
           << json::Num(stats.best_per_step_seconds)
           << ",\"updated_policy\":"
           << (stats.updated_policy ? "true" : "false") << ",";
      AppendSnapshotJson(line, delta, /*full_histograms=*/false);
      line << "}";
      telemetry::WriteLine(line.str());
    };
  }

  // A --resume checkpoint that does not load is bad input, like a
  // malformed graph or cluster spec: one line with the loader's Status
  // (file, code, byte offset) and exit 2. That load failure is the
  // std::runtime_error rl::TrainAgent throws (rl/trainer.h).
  rl::TrainResult result;
  try {
    result = rl::TrainAgent(agent, *context.env, options);
  } catch (const std::runtime_error& error) {
    std::fprintf(stderr, "%s\n", error.what());
    std::exit(2);
  }

  if (telemetry::Enabled() && run_start_snap != nullptr) {
    last_run_end = support::metrics::TakeSnapshot();
    const support::metrics::Snapshot delta =
        last_run_end.DeltaSince(*run_start_snap);
    std::ostringstream os;
    os << "{\"event\":\"run_end\",\"model\":\"" << json::Escape(model_name)
       << "\",\"agent\":\"" << json::Escape(agent_name)
       << "\",\"algorithm\":\"" << json::Escape(algo_name)
       << "\",\"total_samples\":" << result.total_samples
       << ",\"invalid_samples\":" << result.invalid_samples
       << ",\"sim_hours\":" << json::Num(result.total_virtual_hours)
       << ",\"best_per_step_s\":" << json::Num(result.best_per_step_seconds)
       << ",\"best_found_at_hours\":" << json::Num(result.best_found_at_hours)
       << ",\"wall_seconds\":" << json::Num(stopwatch.ElapsedSeconds()) << ",";
    AppendSnapshotJson(os, delta, /*full_histograms=*/true);
    os << "}";
    telemetry::WriteLine(os.str());
  }
  EAGLE_LOG(Info) << models::BenchmarkName(context.benchmark) << " / "
                  << agent.name() << " / " << rl::AlgorithmName(algorithm)
                  << ": best "
                  << (result.found_valid
                          ? support::Table::Num(result.best_per_step_seconds)
                          : "OOM")
                  << " s/step, " << result.invalid_samples << "/"
                  << result.total_samples << " invalid, "
                  << support::Table::Num(result.total_virtual_hours, 2)
                  << " simulated hours, wall "
                  << support::Table::Num(stopwatch.ElapsedSeconds(), 1)
                  << " s";
  if (config.faults.enabled()) {
    EAGLE_LOG(Info) << "  faults: " << context.env->attempts()
                    << " attempts, " << context.env->transient_failures()
                    << " failures, " << context.env->timeouts()
                    << " timeouts, " << context.env->retries() << " retries, "
                    << context.env->exhausted_evaluations()
                    << " gave up, backoff "
                    << support::Table::Num(
                           context.env->backoff_seconds_total(), 1)
                    << " s";
  }
  return result;
}

// Fixed groupings used by Tables I/II and the Post baseline.
inline graph::Grouping MetisGrouping(const graph::OpGraph& graph,
                                     int num_groups, std::uint64_t seed) {
  partition::MetisOptions options;
  options.num_parts = num_groups;
  options.seed = seed;
  return partition::MetisPartition(graph, options);
}

inline graph::Grouping FluidGrouping(const graph::OpGraph& graph,
                                     int num_groups, std::uint64_t seed) {
  partition::FluidOptions options;
  options.num_communities = num_groups;
  options.seed = seed;
  return partition::FluidCommunities(graph, options);
}

inline std::string FormatResult(const rl::TrainResult& result) {
  return result.found_valid
             ? support::Table::Num(result.best_per_step_seconds)
             : std::string("OOM");
}

inline std::string FormatEval(const sim::EvalResult& eval) {
  return eval.valid ? support::Table::Num(eval.true_per_step_seconds)
                    : std::string("OOM");
}

inline void MaybeWriteCsv(const support::Table& table,
                          const BenchConfig& config,
                          const std::string& name) {
  if (!config.csv_prefix.empty()) {
    const std::string path = config.csv_prefix + name + ".csv";
    if (!table.WriteCsv(path)) ReportArtifactFailure("CSV", path);
  }
}

// End-of-run artifact flush: writes the Chrome-trace profile when
// --profile-out was set, closes the telemetry sink, and folds any write
// failure (including earlier CSV/history ones) into the process exit
// code. Benches `return bench::Finish(config);`.
inline int Finish(const BenchConfig& config) {
  if (!config.profile_out.empty() &&
      !support::metrics::WriteProfile(config.profile_out)) {
    ReportArtifactFailure("profile", config.profile_out);
  }
  if (support::telemetry::Enabled() && !support::telemetry::Close()) {
    ReportArtifactFailure("telemetry", config.telemetry_out);
  }
  return ArtifactFailures() == 0 ? 0 : 1;
}

// Training-history export. Invalid samples carry an infinity sentinel in
// per_step_seconds; JSON has no Infinity literal and CSV consumers choke
// on "inf", so those cells serialize as `null` / an empty field.

inline std::string HistoryToJson(const std::vector<rl::HistoryPoint>& history) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < history.size(); ++i) {
    const rl::HistoryPoint& point = history[i];
    if (i) os << ",";
    os << "\n  {\"sample\": " << point.sample_index
       << ", \"sim_hours\": " << point.virtual_hours
       << ", \"per_step_s\": ";
    if (std::isfinite(point.per_step_seconds)) {
      os << point.per_step_seconds;
    } else {
      os << "null";
    }
    os << ", \"best_per_step_s\": ";
    if (std::isfinite(point.best_so_far_seconds)) {
      os << point.best_so_far_seconds;
    } else {
      os << "null";
    }
    os << "}";
  }
  os << "\n]\n";
  return os.str();
}

inline bool WriteHistoryJson(const std::string& path,
                             const std::vector<rl::HistoryPoint>& history) {
  const bool ok = support::WriteFileAtomic(path, [&](std::ostream& out) {
    out << HistoryToJson(history);
    return static_cast<bool>(out);
  });
  if (!ok) ReportArtifactFailure("history JSON", path);
  return ok;
}

inline bool WriteHistoryCsv(const std::string& path,
                            const std::vector<rl::HistoryPoint>& history) {
  const bool ok = support::WriteFileAtomic(path, [&](std::ostream& out) {
    out << "sample,sim_hours,per_step_s,best_per_step_s\n";
    for (const rl::HistoryPoint& point : history) {
      out << point.sample_index << "," << point.virtual_hours << ",";
      if (std::isfinite(point.per_step_seconds)) out << point.per_step_seconds;
      out << ",";
      if (std::isfinite(point.best_so_far_seconds)) {
        out << point.best_so_far_seconds;
      }
      out << "\n";
    }
    return static_cast<bool>(out);
  });
  if (!ok) ReportArtifactFailure("history CSV", path);
  return ok;
}

}  // namespace eagle::bench
