#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The correctness oracle: the RDFS closure of the generated document
// computed by NaiveReasoner over its own Dictionary and TripleStore (the
// document parsed serially, apart from the serving path), plus the answers
// of the benchmark's query templates evaluated directly over that closure.
// Every comparison with the program under test goes through decoded terms.

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "inputs.h"
#include "rdf/dictionary.h"
#include "rdf/vocabulary.h"
#include "reason/naive_reasoner.h"
#include "sparql_json.h"
#include "store/triple_store.h"

namespace perfbench {

/// Outcome of comparing a store under test with the oracle closure.
struct ClosureDiff {
  size_t compared = 0;      // triples of the store under test examined
  size_t matched = 0;       // found in the oracle (with the same explicit flag)
  size_t extra = 0;         // not in the oracle, or explicit flag differs
  size_t undecodable = 0;   // hold an id the store's dictionary cannot decode
  size_t expected = 0;      // oracle triples the store should hold
  /// Expected triples that mention a lost term, and those of them matched.
  size_t expected_lost = 0;
  size_t matched_lost = 0;
  /// Every expected triple is matched, except that each unmatched one
  /// mentioning a lost term is held by exactly one undecodable triple.
  bool ok() const {
    return extra == 0 && matched - matched_lost == expected - expected_lost &&
           undecodable == expected_lost - matched_lost;
  }
  std::string ToString() const;
};

class Oracle {
 public:
  /// Parses `document` serially into a fresh dictionary and materializes
  /// its RDFS closure with NaiveReasoner.
  explicit Oracle(const std::string& document);

  /// Adds statements given as N-Triples term triples and re-materializes.
  void Extend(const std::vector<Statement>& statements);

  /// True iff `term` (N-Triples form) occurs in the closure.
  bool Knows(const std::string& term) const;

  /// Compares `store` (terms decoded via `dict`) with the closure.
  /// `explicit_only` restricts both sides to explicit triples (on-demand
  /// modes, whose stores hold no instance closure). `lost_terms` (N-Triples
  /// forms) are terms `dict` may have lost: an oracle triple that mentions
  /// one may instead be held under ids `dict` cannot decode, one such
  /// triple for each of them the store lacks. Every other triple is
  /// compared strictly.
  ClosureDiff Compare(const slider::TripleStore& store,
                      const slider::Dictionary& dict, bool explicit_only,
                      const std::vector<std::string>& lost_terms = {}) const;

  /// Answer rows of `spec` over the closure, canonical terms, sorted.
  std::vector<Row> Answer(const QuerySpec& spec) const;

  /// Builds the query universe (products, product types and their sizes,
  /// persons, reviews, offers, vendors) from the closure.
  Universe BuildUniverse() const;

 private:
  slider::TermId Id(const std::string& lexical) const;
  std::string Term(slider::TermId id) const;

  slider::Dictionary dict_;
  slider::Vocabulary vocab_;
  slider::TripleStore store_;
  /// The asserted statements. NaiveReasoner stores its derivations with
  /// explicit support too, so the store's flags cannot tell them apart.
  slider::TripleSet explicit_;
  std::unique_ptr<slider::NaiveReasoner> reasoner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
