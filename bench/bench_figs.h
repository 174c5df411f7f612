// Shared driver for the training-curve figures (Figs. 2, 5–7): trains a
// set of named agents on one benchmark, records per-sample measured
// per-step times and the running best against the simulated wall clock,
// renders an ASCII chart and writes the series to CSV.
#pragma once

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace eagle::bench {

struct CurveAgent {
  std::string name;
  std::function<std::unique_ptr<core::PolicyAgent>(const BenchContext&,
                                                   const BenchConfig&)>
      make;
  rl::Algorithm algorithm = rl::Algorithm::kPpo;
};

inline void RunCurves(const std::string& figure_name,
                      models::Benchmark benchmark,
                      const std::vector<CurveAgent>& agents,
                      const BenchConfig& config) {
  std::vector<support::SeriesPoint> best_points;
  std::vector<support::SeriesPoint> sample_points;
  support::Table table(figure_name + ": convergence summary");
  table.SetHeader({"Approach", "best s/step", "found at (sim h)",
                   "invalid", "sim hours"});

  for (const auto& spec : agents) {
    auto context = MakeContext(benchmark, &config);
    auto agent = spec.make(context, config);
    const auto result =
        TrainOnBenchmark(*agent, context, spec.algorithm, config);
    // From the full history, so a resumed run charts the samples trained
    // before the resume too.
    for (const rl::HistoryPoint& point : result.history) {
      if (std::isfinite(point.per_step_seconds)) {
        sample_points.push_back(
            {point.virtual_hours, point.per_step_seconds, spec.name});
      }
      if (std::isfinite(point.best_so_far_seconds)) {
        best_points.push_back(
            {point.virtual_hours, point.best_so_far_seconds, spec.name});
      }
    }
    table.AddRow({spec.name, FormatResult(result),
                  support::Table::Num(result.best_found_at_hours, 2),
                  std::to_string(result.invalid_samples),
                  support::Table::Num(result.total_virtual_hours, 2)});
    if (!config.csv_prefix.empty()) {
      // Full per-sample history, invalid samples included (as null /
      // empty-cell sentinels — see WriteHistoryJson).
      std::string slug = spec.name;
      for (char& c : slug) c = (c == ' ' || c == '/') ? '_' : c;
      const std::string base =
          config.csv_prefix + figure_name + "_" + slug + "_history";
      WriteHistoryJson(base + ".json", result.history);
      WriteHistoryCsv(base + ".csv", result.history);
    }
  }

  std::printf("%s — per-step time of the best placement found so far vs "
              "simulated training hours\n",
              figure_name.c_str());
  std::fputs(support::RenderAsciiSeries(best_points).c_str(), stdout);
  std::fputs(table.ToString().c_str(), stdout);
  MaybeWriteCsv(table, config, figure_name + "_summary");
  if (!config.csv_prefix.empty()) {
    const std::string best_path =
        config.csv_prefix + figure_name + "_best.csv";
    if (!support::WriteSeriesCsv(best_path, "sim_hours", "best_per_step_s",
                                 best_points)) {
      ReportArtifactFailure("series CSV", best_path);
    }
    const std::string samples_path =
        config.csv_prefix + figure_name + "_samples.csv";
    if (!support::WriteSeriesCsv(samples_path, "sim_hours", "per_step_s",
                                 sample_points)) {
      ReportArtifactFailure("series CSV", samples_path);
    }
  }
}

// The three RL approaches compared in Figs. 5–7, trained as published.
inline std::vector<CurveAgent> PaperApproaches() {
  return {
      CurveAgent{"Hierarchical Planner",
                 [](const BenchContext& context, const BenchConfig& config) {
                   return std::unique_ptr<core::PolicyAgent>(
                       core::MakeHierarchicalPlanner(context.graph,
                                                     context.cluster,
                                                     config.dims(),
                                                     config.seed));
                 },
                 rl::Algorithm::kReinforce},
      CurveAgent{"Post",
                 [](const BenchContext& context, const BenchConfig& config) {
                   return std::unique_ptr<core::PolicyAgent>(
                       core::MakePostAgent(context.graph, context.cluster,
                                           /*num_groups=*/16, config.seed));
                 },
                 rl::Algorithm::kPpoCe},
      CurveAgent{"EAGLE",
                 [](const BenchContext& context, const BenchConfig& config) {
                   return std::unique_ptr<core::PolicyAgent>(
                       core::MakeEagleAgent(context.graph, context.cluster,
                                            config.dims(), config.seed));
                 },
                 rl::Algorithm::kPpo},
  };
}

}  // namespace eagle::bench
