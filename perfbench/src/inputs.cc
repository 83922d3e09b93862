#include "inputs.h"

#include <numeric>

namespace perfbench {

namespace {

constexpr double kZipfExponent = 0.99;
constexpr size_t kTailStatements = 300;
constexpr size_t kTailNewTerm = 60;

std::vector<size_t> Permutation(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  slider::Random rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

template <typename T>
const T& Pick(const std::vector<T>& items, slider::Random* rng) {
  return items[rng->Uniform(items.size())];
}

}  // namespace

std::string Bsbm(const std::string& local) {
  return "<" + std::string(kBsbm) + local + ">";
}

std::string IntLiteral(uint64_t value) {
  return "\"" + std::to_string(value) + "\"^^<" + kXsdInteger + ">";
}

std::string QuerySpec::Text() const {
  switch (kind) {
    case Template::kProductTypes:
      return "SELECT ?t WHERE { " + param + " " + kRdfType + " ?t }";
    case Template::kReviews:
      return "SELECT ?r ?d WHERE { ?r " + Bsbm("reviewFor") + " " + param +
             " . ?r " + Bsbm("reviewDate") + " ?d }";
    case Template::kOffers:
      return "SELECT ?o ?v WHERE { ?o " + Bsbm("offerProduct") + " " + param +
             " . ?o " + Bsbm("offerVendor") + " ?v }";
    case Template::kIncoming:
      return "SELECT ?s ?p WHERE { ?s ?p " + param + " }";
    case Template::kTypeScan:
      return "SELECT ?x WHERE { ?x " + std::string(kRdfType) + " " + param +
             " }";
    case Template::kSubclasses:
      return "SELECT ?c WHERE { ?c " + std::string(kSubClassOf) + " " + param +
             " }";
  }
  return "";
}

const std::vector<MixShare>& ReaderMix() {
  static const std::vector<MixShare> mix = {
      {Template::kProductTypes, 20},
      {Template::kReviews, 20},
      {Template::kOffers, 20},
      {Template::kIncoming, 15},
      {Template::kTypeScan, 10},
  };
  return mix;
}

std::vector<QuerySpec> FixedQueries() {
  return {
      {Template::kProductTypes, Bsbm("Product0"), true},
      {Template::kTypeScan, Bsbm("ProductType40"), true},
      {Template::kIncoming, Bsbm("Producer0"), true},
      {Template::kSubclasses, Bsbm("Product"), true},
  };
}

QueryStream::QueryStream(const Universe& universe, uint64_t seed, int reader)
    : u_(universe),
      rng_(seed * 1000003 + 17 + static_cast<uint64_t>(reader)),
      product_order_(Permutation(universe.products.size(), seed)),
      zipf_(universe.products.size(), kZipfExponent),
      fixed_(FixedQueries()) {}

QuerySpec QueryStream::Next() {
  int roll = static_cast<int>(rng_.Uniform(100));
  for (const MixShare& share : ReaderMix()) {
    if (roll >= share.percent) {
      roll -= share.percent;
      continue;
    }
    QuerySpec spec;
    spec.kind = share.kind;
    if (share.kind == Template::kTypeScan) {
      spec.param = Pick(Pick(u_.scan_buckets, &rng_), &rng_);
    } else {
      spec.param = u_.products[product_order_[zipf_.Sample(&rng_)]];
    }
    return spec;
  }
  return fixed_[rng_.Uniform(fixed_.size())];
}

WriterStream::WriterStream(const Universe& universe, uint64_t seed, int writer)
    : u_(universe),
      rng_(seed * 1000003 + 1001 + static_cast<uint64_t>(writer)),
      writer_(writer),
      product_order_(Permutation(universe.products.size(), seed)),
      zipf_(universe.products.size(), kZipfExponent) {}

std::string WriterStream::Next() {
  const std::string review = std::string(kWriterPrefix) +
                             std::to_string(writer_) + "/review" +
                             std::to_string(next_entity_++) + ">";
  const std::string& product = u_.products[product_order_[zipf_.Sample(&rng_)]];
  const std::vector<Statement> triples = {
      {review, kRdfType, Bsbm("Review")},
      {review, Bsbm("reviewFor"), product},
      {review, Bsbm("reviewer"), Pick(u_.persons, &rng_)},
      {review, Bsbm("rating1"), IntLiteral(1 + rng_.Uniform(10))},
      {review, Bsbm("reviewDate"), IntLiteral(rng_.Uniform(3650))},
  };
  std::string block;
  for (const Statement& t : triples) block += t.NTriples() + " ";
  std::string text = "INSERT DATA { " + block + "}";
  if (!previous_.empty()) text = Finish() + " ; " + text;
  previous_ = std::move(block);
  return text;
}

std::string WriterStream::Finish() const {
  return previous_.empty() ? "" : "DELETE DATA { " + previous_ + "}";
}

std::string TailStatement::UpdateText() const {
  return "INSERT DATA { " + statement.NTriples() + " }";
}

std::string TailStatement::ProbeText() const {
  return "SELECT ?o WHERE { " + statement.s + " " + statement.p + " ?o }";
}

std::vector<TailStatement> MakeTail(const Universe& u, uint64_t seed) {
  slider::Random rng(seed * 7919 + 3);
  std::vector<TailStatement> tail;
  for (size_t i = 0; tail.size() < kTailStatements - kTailNewTerm; ++i) {
    TailStatement t;
    switch (i % 3) {
      case 0:
        t.statement = {Pick(u.reviews, &rng), Bsbm("reviewFor"),
                       Pick(u.products, &rng)};
        break;
      case 1:
        t.statement = {Pick(u.products, &rng), kRdfType,
                       Pick(u.all_types, &rng)};
        break;
      default:
        t.statement = {Pick(u.offers, &rng), Bsbm("offerVendor"),
                       Pick(u.vendors, &rng)};
        break;
    }
    tail.push_back(std::move(t));
  }
  // The new-term statements do not depend on the seed, so the probes that
  // read them back after Recover fail (or pass) identically in every run.
  for (size_t k = 0; k < kTailNewTerm; ++k) {
    TailStatement t;
    t.new_term = true;
    const std::string n = std::to_string(k);
    switch (k % 3) {
      case 0:
        t.statement = {std::string(kTailPrefix) + "e" + n + ">", kRdfType,
                       Bsbm("Review")};
        break;
      case 1:
        t.statement = {Bsbm("Product" + n), Bsbm("label"),
                       "\"tail label " + n + "\""};
        break;
      default:
        t.statement = {std::string(kTailPrefix) + "t" + n + ">", kRdfType,
                       Bsbm("ProductType" + std::to_string(k + 1))};
        break;
    }
    tail.push_back(std::move(t));
  }
  for (size_t i = tail.size(); i > 1; --i) {
    std::swap(tail[i - 1], tail[rng.Uniform(i)]);
  }
  return tail;
}

}  // namespace perfbench
