// The graph source of a LOAD or SOLVE request, parsed once.
//
// A request names its graph in one of four ways: a resident
// "fingerprint", inline "dimacs" text, a server-side "path", or a
// "generator" spec. The worker resolves its graph from this parse and
// mcr_router routes by it, so both tiers read one request as naming
// one graph. parse_graph_source() validates the source and, for
// the sources whose content is fixed by the request itself, derives an
// alias key: the GraphRegistry memoizes a built graph under that key,
// so a repeated source skips regenerate/parse + CSR + fingerprint.
//
// Alias keys are injective — two different effective sources never
// share one:
//   - generator: "gen:" + family + every field the generator reads,
//     printed as decimal integers after defaults are applied, in a
//     fixed order. Numbers are never keyed on formatted doubles.
//   - dimacs: "dimacs:" + the exact text, compared in full.
//   - path: no key (the file may change between requests).
//   - fingerprint: no key (it already is the registry's address).
//
// Generator specs are strict: every field must be an integer in its
// range and every key must be one the family reads; anything else
// throws std::invalid_argument (BAD_REQUEST on the wire). The families,
// their keys, ranges and defaults are the table in gen/families.h,
// which mcr_gen and `mcr_pack gen` read too (docs/SERVICE.md).
#ifndef MCR_SVC_GRAPH_SOURCE_H
#define MCR_SVC_GRAPH_SOURCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace mcr::json {
class Value;
}  // namespace mcr::json

namespace mcr::svc {

struct GraphSource {
  /// kNone: the request names no graph.
  enum class Kind { kNone, kFingerprint, kDimacs, kPath, kGenerator };
  Kind kind = Kind::kNone;
  /// kFingerprint: the fingerprint hex. kPath: the file path.
  std::string ref;
  /// Registry alias key; empty for kFingerprint and kPath (never
  /// memoized). For kDimacs the text itself follows the "dimacs:" prefix.
  std::string alias_key;
  /// kGenerator: the family and its field values, defaults applied,
  /// in the family's field order.
  std::string family;
  std::vector<std::int64_t> fields;

  /// Parses, reads or generates the graph (kDimacs, kPath, kGenerator).
  /// Throws std::runtime_error / std::invalid_argument on bad input, and
  /// std::invalid_argument ("no graph source ...") for kNone.
  [[nodiscard]] Graph build() const;
};

/// Reads the request's graph source, in precedence order fingerprint >
/// dimacs > path > generator; kNone when the request names none. Throws
/// when a named source is malformed (a non-string fingerprint, dimacs or
/// path, or a generator spec that is not strictly valid).
[[nodiscard]] GraphSource parse_graph_source(const json::Value& request);

}  // namespace mcr::svc

#endif  // MCR_SVC_GRAPH_SOURCE_H
