// Robustness bench: best per-step time found by EAGLE (PPO) as the
// measurement environment degrades. Each column injects faults at an
// increasing base rate r (transient session crashes at r, hard device
// downs at r/4, stragglers at r, degraded links at r — the
// sim::FaultProfileFromString bare-number shorthand). Retries with
// exponential backoff keep training alive; exhausted evaluations fall
// back to the invalid-placement penalty, so runs complete even at high
// rates — at the cost of virtual measurement hours and sample quality.
#include <cstdio>

#include "bench/bench_common.h"

using namespace eagle;
using bench::BenchConfig;

namespace {

// Each --rates entry is a bare rate, the sim::FaultProfileFromString
// shorthand, applied on top of the --faults profile (whose slowdown and
// link factors it keeps).
std::vector<sim::FaultProfile> ColumnProfiles(const std::string& faults,
                                              const std::string& rates) {
  std::vector<sim::FaultProfile> profiles;
  for (const std::string& rate : support::SplitList(rates)) {
    if (rate.find('=') != std::string::npos) {
      throw std::invalid_argument("'" + rate + "' is not a bare rate");
    }
    profiles.push_back(sim::FaultProfileFromString(faults + "," + rate));
  }
  if (profiles.empty()) throw std::invalid_argument("needs at least one rate");
  return profiles;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args("Faults: EAGLE robustness vs fault-injection rate");
  bench::AddCommonFlags(args, /*default_samples=*/150);
  args.AddString("rates", "0,0.05,0.1,0.2",
                 "comma-separated base fault rates to sweep");
  if (!args.Parse(argc, argv)) return 0;
  const BenchConfig config = bench::ReadCommonFlags(args);
  const auto profiles =
      args.GetParsed("rates", [&args](const std::string& rates) {
        return ColumnProfiles(args.GetString("faults"), rates);
      });

  support::Table table(
      "FAULTS: best per-step time (s) found by EAGLE (PPO) vs injected "
      "fault rate, with retry/failure accounting.");
  table.SetHeader({"Models", "rate", "best s/step", "invalid", "attempts",
                   "failures", "timeouts", "retries", "gave up",
                   "sim hours"});
  for (auto benchmark : config.benchmarks) {
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      BenchConfig run_config = config;
      run_config.faults = profiles[i];
      // Distinct fault stream per (model, rate) cell, reproducible per
      // --seed.
      run_config.faults.seed =
          config.seed * 1000 + static_cast<std::uint64_t>(i);
      auto context = bench::MakeContext(benchmark, &run_config);
      auto agent = core::MakeEagleAgent(context.graph, context.cluster,
                                        run_config.dims(), run_config.seed);
      const auto result = bench::TrainOnBenchmark(
          *agent, context, rl::Algorithm::kPpo, run_config);
      table.AddRow({models::BenchmarkName(benchmark),
                    support::Table::Num(profiles[i].transient_failure_rate, 2),
                    bench::FormatResult(result),
                    std::to_string(result.invalid_samples),
                    std::to_string(context.env->attempts()),
                    std::to_string(context.env->transient_failures()),
                    std::to_string(context.env->timeouts()),
                    std::to_string(context.env->retries()),
                    std::to_string(context.env->exhausted_evaluations()),
                    support::Table::Num(result.total_virtual_hours, 2)});
    }
  }
  std::fputs(table.ToString().c_str(), stdout);
  bench::MaybeWriteCsv(table, config, "faults");
  return bench::Finish(config);
}
