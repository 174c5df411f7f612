// Inputs shared by the ingestion tests, and the one runner for the
// malformed-input fixture corpora (tests/graph_fixtures/,
// tests/cluster_fixtures/). Each corpus has a MANIFEST pinning every
// fixture's whole diagnostic — taxonomy code, line, column and message;
// its header documents the grammar — and every fixture must come back as
// exactly that diagnostic, never as a throw or a parsed value.
#pragma once

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "support/status.h"

namespace eagle::testing_fixtures {

struct FixtureCase {
  std::string file;
  support::ErrorCode code = support::ErrorCode::kOk;
  int line = 0;    // 0: the diagnostic has no line
  int column = 0;  // 0: the diagnostic has no column
  bool tiny = false;
  std::string message;
};

// A valid JSON cluster spec that sets every field the format has:
// ClusterFromJson.ParsesTheObjectForm checks what it parses to, and the
// mutation fuzz in test_ingest corrupts it.
constexpr char kClusterObjectSpec[] = R"({
    "devices": [
      {"name": "host", "kind": "cpu", "gflops": 80, "memory_bytes": 1024},
      {"name": "g0", "kind": "gpu", "gflops": 2500, "mem_bw_gbps": 550,
       "launch_overhead_us": 50},
      {"name": "g1", "kind": "gpu", "gflops": 900}
    ],
    "default_link": {"bandwidth_gbps": 9, "latency_us": 130},
    "links": [
      {"src": "host", "dst": "g0", "bandwidth_gbps": 11, "latency_us": 50,
       "channel": "root", "bidir": true},
      {"src": "host", "dst": "g1", "bandwidth_gbps": 11, "latency_us": 50,
       "channel": "root", "bidir": true},
      {"src": "g0", "dst": "g1", "bandwidth_gbps": 44, "latency_us": 6}
    ]
  })";

inline std::string CorpusPath(const std::string& corpus,
                              const std::string& file) {
  return std::string(EAGLE_SOURCE_DIR) + "/tests/" + corpus + "/" + file;
}

// Reads tests/<corpus>/MANIFEST:
//   <file> <code> <line|-> <column|-> [tiny] | <message>
inline std::vector<FixtureCase> ReadManifest(const std::string& corpus) {
  const std::string path = CorpusPath(corpus, "MANIFEST");
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::vector<FixtureCase> cases;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t bar = line.find(" | ");
    EXPECT_NE(bar, std::string::npos) << "no message in MANIFEST: " << line;
    if (bar == std::string::npos) continue;
    std::istringstream fields(line.substr(0, bar));
    FixtureCase c;
    std::string code, line_spec, column_spec, flag;
    fields >> c.file >> code >> line_spec >> column_spec >> flag;
    EXPECT_TRUE(support::ErrorCodeFromName(code, &c.code))
        << "bad code in MANIFEST: " << line;
    if (line_spec != "-") c.line = std::stoi(line_spec);
    if (column_spec != "-") c.column = std::stoi(column_spec);
    c.tiny = flag == "tiny";
    c.message = line.substr(bar + 3);
    cases.push_back(std::move(c));
  }
  return cases;
}

// Imports every fixture of `corpus` through `import(path, tiny)` and
// checks the diagnostic against the MANIFEST, field by field.
inline void ExpectPinnedDiagnostics(
    const std::string& corpus,
    const std::function<support::Status(const std::string& path, bool tiny)>&
        import) {
  const std::vector<FixtureCase> cases = ReadManifest(corpus);
  ASSERT_GE(cases.size(), 40u) << "fixture corpus shrank";
  for (const FixtureCase& c : cases) {
    const std::string path = CorpusPath(corpus, c.file);
    const support::Status status = import(path, c.tiny);
    EXPECT_EQ(support::ErrorCodeName(status.code()),
              std::string(support::ErrorCodeName(c.code)))
        << c.file << ": " << status.ToString();
    EXPECT_EQ(status.file(), path) << status.ToString();
    EXPECT_EQ(status.line(), c.line) << c.file << ": " << status.ToString();
    EXPECT_EQ(status.column(), c.column)
        << c.file << ": " << status.ToString();
    EXPECT_EQ(status.message(), c.message) << c.file;
  }
}

}  // namespace eagle::testing_fixtures
