#include "models/zoo.h"

#include <stdexcept>

#include "models/bert.h"
#include "models/gnmt.h"
#include "models/inception_v3.h"
#include "support/check.h"

namespace eagle::models {

Benchmark BenchmarkFromName(const std::string& name) {
  if (name == "inception_v3" || name == "inception") {
    return Benchmark::kInceptionV3;
  }
  if (name == "gnmt" || name == "nmt") return Benchmark::kGNMT;
  if (name == "bert" || name == "bert_base") return Benchmark::kBertBase;
  throw std::invalid_argument("unknown benchmark '" + name +
                              "' (expected inception_v3, gnmt or bert)");
}

const char* BenchmarkName(Benchmark benchmark) {
  switch (benchmark) {
    case Benchmark::kInceptionV3: return "Inception-V3";
    case Benchmark::kGNMT: return "GNMT";
    case Benchmark::kBertBase: return "BERT";
  }
  return "?";
}

std::vector<Benchmark> AllBenchmarks() {
  return {Benchmark::kInceptionV3, Benchmark::kGNMT, Benchmark::kBertBase};
}

graph::OpGraph BuildBenchmark(Benchmark benchmark, const ZooOptions& options) {
  switch (benchmark) {
    case Benchmark::kInceptionV3: {
      InceptionConfig config;
      config.training = options.training;
      return BuildInceptionV3(config);
    }
    case Benchmark::kGNMT: {
      GnmtConfig config;
      config.training = options.training;
      if (options.reduced) {
        config.seq_len = 8;
        config.hidden = 256;
        config.vocab = 4000;
        config.batch = 32;
      }
      return BuildGNMT(config);
    }
    case Benchmark::kBertBase: {
      BertConfig config;
      config.training = options.training;
      if (options.reduced) {
        config.layers = 4;
        config.seq_len = 128;
        config.batch = 8;
        config.heads = 4;
      }
      return BuildBertBase(config);
    }
  }
  EAGLE_CHECK(false);
}

}  // namespace eagle::models
