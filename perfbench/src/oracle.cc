#include "oracle.h"

#include <algorithm>
#include <array>
#include <set>

#include "common/status.h"
#include "rdf/graph_io.h"
#include "reason/fragment.h"

namespace perfbench {

using slider::TermId;
using slider::Triple;
using slider::TriplePattern;

namespace {

constexpr TermId kUnknown = 0;          // term absent from the other side
constexpr TermId kUndecodable = ~TermId{0};

}  // namespace

std::string ClosureDiff::ToString() const {
  return "compared=" + std::to_string(compared) +
         " matched=" + std::to_string(matched) +
         " expected=" + std::to_string(expected) +
         " extra=" + std::to_string(extra) +
         " undecodable=" + std::to_string(undecodable) +
         " expected_lost=" + std::to_string(expected_lost) +
         " matched_lost=" + std::to_string(matched_lost);
}

Oracle::Oracle(const std::string& document)
    : vocab_(slider::Vocabulary::Register(&dict_)) {
  auto parsed = slider::LoadNTriplesString(document, &dict_);
  parsed.status().AbortIfNotOk();
  reasoner_ = std::make_unique<slider::NaiveReasoner>(
      slider::Fragment::Rdfs(vocab_), &store_);
  explicit_.insert(parsed->begin(), parsed->end());
  reasoner_->Materialize(*parsed);
}

void Oracle::Extend(const std::vector<Statement>& statements) {
  slider::TripleVec input;
  for (const Statement& t : statements) {
    input.push_back(dict_.EncodeTriple(t.s, t.p, t.o));
  }
  explicit_.insert(input.begin(), input.end());
  reasoner_->Materialize(input);
}

TermId Oracle::Id(const std::string& lexical) const {
  const auto id = dict_.Lookup(lexical);
  return id.has_value() ? *id : kUnknown;
}

std::string Oracle::Term(TermId id) const {
  return CanonicalTerm(dict_.DecodeUnchecked(id));
}

bool Oracle::Knows(const std::string& term) const {
  return Id(term) != kUnknown;
}

ClosureDiff Oracle::Compare(const slider::TripleStore& store,
                            const slider::Dictionary& dict, bool explicit_only,
                            const std::vector<std::string>& lost_terms) const {
  ClosureDiff diff;
  std::unordered_set<TermId> lost;
  for (const std::string& term : lost_terms) {
    if (Knows(term)) lost.insert(Id(term));
  }
  const auto mentions_lost = [&](const Triple& t) {
    return lost.count(t.s) > 0 || lost.count(t.p) > 0 || lost.count(t.o) > 0;
  };
  std::unordered_map<TermId, TermId> to_oracle;
  to_oracle.reserve(dict.size());
  const auto map = [&](TermId id) {
    const auto it = to_oracle.find(id);
    if (it != to_oracle.end()) return it->second;
    TermId mapped = kUndecodable;
    auto decoded = dict.Decode(id);
    if (decoded.ok()) mapped = Id(*decoded);
    to_oracle.emplace(id, mapped);
    return mapped;
  };
  store.ForEachMatch(TriplePattern(), [&](const Triple& t) {
    const bool is_explicit = store.IsExplicit(t);
    if (explicit_only && !is_explicit) return;
    ++diff.compared;
    const Triple m(map(t.s), map(t.p), map(t.o));
    if (m.s == kUndecodable || m.p == kUndecodable || m.o == kUndecodable) {
      ++diff.undecodable;
      return;
    }
    if (m.s == kUnknown || m.p == kUnknown || m.o == kUnknown ||
        !store_.Contains(m) || (explicit_.count(m) > 0) != is_explicit) {
      ++diff.extra;
      return;
    }
    ++diff.matched;
    if (mentions_lost(m)) ++diff.matched_lost;
  });
  store_.ForEachMatch(TriplePattern(), [&](const Triple& t) {
    if (explicit_only && explicit_.count(t) == 0) return;
    ++diff.expected;
    if (mentions_lost(t)) ++diff.expected_lost;
  });
  return diff;
}

std::vector<Row> Oracle::Answer(const QuerySpec& spec) const {
  std::vector<Row> rows;
  const TermId x = Id(spec.param);
  if (x == kUnknown) return rows;
  const auto each = [&](TermId s, TermId p, TermId o, auto&& fn) {
    store_.ForEachMatch(TriplePattern{s, p, o}, fn);
  };
  switch (spec.kind) {
    case Template::kProductTypes:
      each(x, vocab_.type, 0, [&](const Triple& t) {
        rows.push_back({Term(t.o)});
      });
      break;
    case Template::kReviews:
    case Template::kOffers: {
      const bool reviews = spec.kind == Template::kReviews;
      const TermId link = Id(Bsbm(reviews ? "reviewFor" : "offerProduct"));
      const TermId attr = Id(Bsbm(reviews ? "reviewDate" : "offerVendor"));
      each(0, link, x, [&](const Triple& t) {
        each(t.s, attr, 0, [&](const Triple& a) {
          rows.push_back({Term(t.s), Term(a.o)});
        });
      });
      break;
    }
    case Template::kIncoming:
      each(0, 0, x, [&](const Triple& t) {
        rows.push_back({Term(t.s), Term(t.p)});
      });
      break;
    case Template::kTypeScan:
      each(0, vocab_.type, x, [&](const Triple& t) {
        rows.push_back({Term(t.s)});
      });
      break;
    case Template::kSubclasses:
      each(0, vocab_.sub_class_of, x, [&](const Triple& t) {
        rows.push_back({Term(t.s)});
      });
      break;
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

Universe Oracle::BuildUniverse() const {
  Universe u;
  const auto instances = [&](const char* cls) {
    std::vector<std::string> out;
    const TermId cls_id = Id(Bsbm(cls));
    if (cls_id == kUnknown) return out;
    store_.ForEachMatch(TriplePattern{0, vocab_.type, cls_id},
                        [&](const Triple& t) { out.push_back(Term(t.s)); });
    std::sort(out.begin(), out.end());
    return out;
  };
  u.products = instances("Product");
  u.persons = instances("Person");
  u.reviews = instances("Review");
  u.offers = instances("Offer");
  u.vendors = instances("Vendor");
  const std::string type_prefix = Bsbm("ProductType").substr(
      0, Bsbm("ProductType").size() - 1);
  std::set<std::string> types;
  store_.ForEachMatch(TriplePattern{0, vocab_.sub_class_of, 0},
                      [&](const Triple& t) {
                        const std::string term = Term(t.s);
                        if (term.rfind(type_prefix, 0) == 0) types.insert(term);
                      });
  u.all_types.assign(types.begin(), types.end());
  constexpr std::array<size_t, 5> kBounds = {100, 300, 1000, 3000, 12001};
  std::vector<std::vector<std::string>> buckets(kBounds.size() - 1);
  for (const std::string& type : u.all_types) {
    size_t count = 0;
    store_.ForEachMatch(TriplePattern{0, vocab_.type, Id(type)},
                        [&](const Triple&) { ++count; });
    for (size_t b = 0; b < kBounds.size() - 1; ++b) {
      if (count >= kBounds[b] && count < kBounds[b + 1]) buckets[b].push_back(type);
    }
  }
  for (auto& bucket : buckets) {
    if (!bucket.empty()) u.scan_buckets.push_back(std::move(bucket));
  }
  return u;
}

}  // namespace perfbench
