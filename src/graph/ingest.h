// Hardened graph ingestion: StatusOr parsers for untrusted input.
//
// Everything that accepts a *user-supplied* graph file — inspect_model
// --load, trace_placement --load, bench_micro --load, custom_model
// --load — goes through this module: no input, however
// malformed, makes these functions throw or abort. Failures come back as
// a support::Status carrying an error-taxonomy code and the
// file:line:column the problem was detected at. The line reader, JSON
// record checks and file import underneath are shared with the cluster
// importer (graph/record_reader.h).
//
// Two formats are accepted:
//   *.eg   — the line-based text format written by SaveText
//   *.json — the object written by ToJson (FromJson closes the loop on
//            the previously write-only JSON export)
// Both round-trip byte-identically: parse(print(g)) reprints to the
// same bytes. docs/GRAPH_FORMATS.md specifies the grammars, the error
// taxonomy, and the IngestLimits defaults.
#pragma once

#include <string>

#include "graph/op_graph.h"
#include "graph/validate.h"
#include "support/status.h"

namespace eagle::graph {

struct IngestOptions {
  // Resource caps applied both during parsing (so a hostile file cannot
  // balloon memory before validation runs) and by ValidateGraphValues,
  // which every parser runs on its result.
  IngestLimits limits;
  // Name used in diagnostics ("<input>" for in-memory strings;
  // ImportGraphFile overrides it with the path).
  std::string source_name = "<input>";
};

// Parses the .eg text format. Never throws on malformed input.
support::StatusOr<OpGraph> ParseTextGraph(const std::string& text,
                                          const IngestOptions& opts = {});

// Parses the JSON graph format emitted by ToJson. Never throws on
// malformed input. Syntax errors carry line:column derived from the
// JSON parser's byte offset; semantic errors name the offending
// ops[i]/edges[i] entry in the message.
support::StatusOr<OpGraph> FromJson(const std::string& text,
                                    const IngestOptions& opts = {});

// Opens `path`, dispatches on its suffix (".json" → the FromJson
// grammar, anything else → the .eg grammar, streamed from disk), and
// uses the path as the diagnostic source name. kIo when the file cannot
// be opened or read.
support::StatusOr<OpGraph> ImportGraphFile(const std::string& path,
                                           const IngestOptions& opts = {});

}  // namespace eagle::graph
