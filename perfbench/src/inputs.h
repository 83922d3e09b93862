#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded inputs: the BSBM document, the reader query mix, the writer
// updates and the ingest workload's post-checkpoint tail. Everything is a
// pure function of the seed (and of the generated data's universe).

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace perfbench {

inline constexpr const char* kBsbm = "http://slider.repro/bsbm/";
inline constexpr const char* kRdfType =
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>";
inline constexpr const char* kSubClassOf =
    "<http://www.w3.org/2000/01/rdf-schema#subClassOf>";
inline constexpr const char* kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
/// IRIs of entities the writers insert; the only ones a response may bind
/// beyond the oracle's answer over the base data.
inline constexpr const char* kWriterPrefix = "<http://slider.repro/bench/writer";
/// IRIs minted by the ingest tail (terms never seen before the checkpoint).
inline constexpr const char* kTailPrefix = "<http://slider.repro/bench/tail/";

/// Triples in the generated BSBM document (approximate; BsbmGenerator).
inline constexpr size_t kDocumentTriples = 500000;

/// "<http://slider.repro/bsbm/local>"
std::string Bsbm(const std::string& local);
/// "\"value\"^^<xsd:integer>"
std::string IntLiteral(uint64_t value);

/// One statement as three N-Triples terms.
struct Statement {
  std::string s, p, o;
  std::string NTriples() const { return s + " " + p + " " + o + " ."; }
};

enum class Template {
  kProductTypes,  // SELECT ?t WHERE { P a ?t }
  kReviews,       // reviews of P with their dates
  kOffers,        // offers of P with their vendors
  kIncoming,      // SELECT ?s ?p WHERE { ?s ?p X }
  kTypeScan,      // SELECT ?x WHERE { ?x a C }
  kSubclasses,    // SELECT ?c WHERE { ?c rdfs:subClassOf C }
};

struct QuerySpec {
  Template kind = Template::kProductTypes;
  std::string param;  // the bound term, N-Triples form
  bool fixed = false; // one of the verbatim-repeated texts
  std::string Text() const;
};

/// Entities of the generated data the inputs draw from (sorted IRIs).
struct Universe {
  std::vector<std::string> products, persons, reviews, offers, vendors;
  /// Product types with 100 to 12000 instances, in four buckets by
  /// instance count ([100, 300), [300, 1000), [1000, 3000), [3000, 12000]):
  /// the type scans stream hundreds to thousands of rows, the largest
  /// above the tabling cache's 4096-row admission bound. A scan picks a
  /// bucket uniformly, then a class in it, so each size class holds a
  /// fixed share of the mix and the 99th percentile falls inside one.
  std::vector<std::vector<std::string>> scan_buckets;
  std::vector<std::string> all_types;
};

/// Share of each template in the reader mix, in percent.
struct MixShare {
  Template kind;
  int percent;
};
const std::vector<MixShare>& ReaderMix();
/// The verbatim-repeated texts (15% of the mix, equal shares).
std::vector<QuerySpec> FixedQueries();

/// Per-reader seeded query stream.
class QueryStream {
 public:
  QueryStream(const Universe& universe, uint64_t seed, int reader);
  QuerySpec Next();

 private:
  const Universe& u_;
  slider::Random rng_;
  std::vector<size_t> product_order_;  // Zipf rank -> product index
  slider::ZipfDistribution zipf_;
  std::vector<QuerySpec> fixed_;
};

/// Per-writer seeded update stream. Every fresh review entity is inserted
/// by one request and deleted, triple for triple, by the next, which also
/// inserts the next entity: "DELETE DATA { previous } ; INSERT DATA { new }".
/// The store size stays level, and every request but the first and the
/// closing one costs one DRed delete and one incremental insert.
class WriterStream {
 public:
  WriterStream(const Universe& universe, uint64_t seed, int writer);
  /// Text of the next update request.
  std::string Next();
  /// The closing request: deletes the last entity inserted (empty if none).
  std::string Finish() const;

 private:
  const Universe& u_;
  slider::Random rng_;
  int writer_;
  uint64_t next_entity_ = 0;
  std::vector<size_t> product_order_;
  slider::ZipfDistribution zipf_;
  std::string previous_;  // triple block of the entity inserted last
};

/// The ingest workload's post-checkpoint tail: one INSERT DATA per
/// statement. `new_term` marks the statements that introduce terms never
/// seen before the checkpoint; those are fixed (independent of the seed).
struct TailStatement {
  Statement statement;
  bool new_term = false;
  std::string UpdateText() const;
  std::string ProbeText() const;  // SELECT ?o WHERE { s p ?o }
};
std::vector<TailStatement> MakeTail(const Universe& universe, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
