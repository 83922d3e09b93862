#ifndef PERFBENCH_SPARQL_JSON_H_
#define PERFBENCH_SPARQL_JSON_H_

// Decoding of SPARQL 1.1 JSON results into comparable rows. Terms are put
// in one canonical text form on both sides of a comparison — the server's
// JSON bindings and the oracle's N-Triples lexical forms — so answers are
// compared by their terms, never by dictionary ids.

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Row = std::vector<std::string>;

/// Parses a SPARQL JSON results document. Each row holds the canonical
/// form of every variable in head.vars order ("" when unbound). Returns
/// false on malformed input.
bool ParseSparqlJson(std::string_view body, std::vector<Row>* rows);

/// Canonical form of an N-Triples lexical term: IRIs and blank nodes as
/// written, literals with their escapes undone ("raw"^^<dt> / "raw"@lang).
std::string CanonicalTerm(std::string_view lexical);

}  // namespace perfbench

#endif  // PERFBENCH_SPARQL_JSON_H_
