// Tests for the Repository's two inference cores: the default
// statement-at-a-time (TRREE-style) mode and the semi-naive ablation mode
// must be interchangeable — identical closures, identical repository
// semantics — differing only in work granularity.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "rdf/graph_io.h"
#include "reason/repository.h"
#include "workload/bsbm_generator.h"
#include "workload/chain_generator.h"

namespace slider {
namespace {

Repository::Options WithMode(Repository::InferenceMode mode) {
  Repository::Options options;
  options.inference = mode;
  return options;
}

// Every stored triple as one N-Triples statement, decoded through `repo`'s
// own dictionary.
std::set<std::string> DecodedClosure(Repository& repo) {
  auto doc = ToNTriplesString(repo.store().Snapshot(), *repo.dictionary());
  if (!doc.ok()) {
    ADD_FAILURE() << doc.status().ToString();
    return {};
  }
  std::vector<std::string> lines = Split(*doc, '\n');
  lines.pop_back();  // the document ends in a newline
  return {lines.begin(), lines.end()};
}

class RepositoryModesTest
    : public ::testing::TestWithParam<Repository::InferenceMode> {};

TEST_P(RepositoryModesTest, ChainClosureMatchesClosedForm) {
  auto repo = Repository::Open(RhoDfFactory(), WithMode(GetParam()));
  ASSERT_TRUE(repo.ok());
  auto stats = (*repo)->Load(ChainGenerator::GenerateNTriples(30));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*repo)->inferred_count(), ChainGenerator::ExpectedRhoDfInferred(30));
}

TEST_P(RepositoryModesTest, BatchRecomputeSemanticsHoldInBothModes) {
  auto repo = Repository::Open(RhoDfFactory(), WithMode(GetParam()));
  ASSERT_TRUE(repo.ok());
  Dictionary* dict = (*repo)->dictionary();
  const Vocabulary& v = (*repo)->vocabulary();
  const TermId a = dict->Encode("<http://m/A>");
  const TermId b = dict->Encode("<http://m/B>");
  const TermId c = dict->Encode("<http://m/C>");
  ASSERT_TRUE((*repo)->AddTriples({{a, v.sub_class_of, b}}).ok());
  auto second = (*repo)->AddTriples({{b, v.sub_class_of, c}});
  ASSERT_TRUE(second.ok());
  // Recompute-from-scratch processes the full explicit set again.
  EXPECT_EQ(second->materialize.input_count, 2u);
  EXPECT_TRUE((*repo)->store().Contains({a, v.sub_class_of, c}));
}

TEST_P(RepositoryModesTest, PersistsAndRecoversInBothModes) {
  const std::string dir =
      testing::TempDir() + "/repo_mode_" +
      std::to_string(static_cast<int>(GetParam()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Repository::Options options = WithMode(GetParam());
  options.storage_dir = dir;
  size_t closure = 0;
  {
    auto repo = Repository::Open(RdfsFactory(), options);
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(15)).ok());
    ASSERT_TRUE((*repo)->Checkpoint().ok());
    closure = (*repo)->store().size();
    // The checkpoint must have produced both statement indexes.
    EXPECT_TRUE(std::filesystem::exists(dir + "/index_pso.bin"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/index_pos.bin"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/dictionary.dump"));
  }
  auto recovered = Repository::Recover(RdfsFactory(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->store().size(), closure);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, RepositoryModesTest,
    ::testing::Values(Repository::InferenceMode::kStatementAtATime,
                      Repository::InferenceMode::kSemiNaive),
    [](const ::testing::TestParamInfo<Repository::InferenceMode>& info) {
      return info.param == Repository::InferenceMode::kStatementAtATime
                 ? "statement_at_a_time"
                 : "semi_naive";
    });

TEST(RepositoryModeEquivalenceTest, ModesProduceIdenticalClosures) {
  // Same document through both cores: the stores must be set-equal.
  const std::string doc = BsbmGenerator::GenerateNTriples({.target_triples = 20000});

  auto trree = Repository::Open(
      RdfsFactory(), WithMode(Repository::InferenceMode::kStatementAtATime));
  ASSERT_TRUE(trree.ok());
  ASSERT_TRUE((*trree)->Load(doc).ok());

  auto semi = Repository::Open(
      RdfsFactory(), WithMode(Repository::InferenceMode::kSemiNaive));
  ASSERT_TRUE(semi.ok());
  ASSERT_TRUE((*semi)->Load(doc).ok());

  // Load parses a document this size with parallel parser instances, and
  // concurrent encoders interleave the dense id range in nondeterministic
  // order (Dictionary's id assignment contract), so the two repositories
  // agree on decoded triples, not on ids. Compare the closures in N-Triples
  // lexical form, each decoded through its own repository's dictionary.
  const std::set<std::string> trree_closure = DecodedClosure(**trree);
  const std::set<std::string> semi_closure = DecodedClosure(**semi);
  // Decoding must not merge distinct stored triples.
  EXPECT_EQ(trree_closure.size(), (*trree)->store().size());
  EXPECT_EQ(semi_closure.size(), (*semi)->store().size());
  EXPECT_EQ(trree_closure, semi_closure);
  EXPECT_EQ((*trree)->inferred_count(), (*semi)->inferred_count());
}

TEST(RepositoryModeEquivalenceTest, IndexFilesHoldTheFullClosureSorted) {
  const std::string dir = testing::TempDir() + "/repo_index_check";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Repository::Options options;
  options.storage_dir = dir;
  auto repo = Repository::Open(RhoDfFactory(), options);
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE((*repo)->Load(ChainGenerator::GenerateNTriples(12)).ok());
  ASSERT_TRUE((*repo)->Checkpoint().ok());

  const size_t closure = (*repo)->store().size();
  for (const char* name : {"index_pso.bin", "index_pos.bin"}) {
    const std::string path = dir + "/" + std::string(name);
    ASSERT_TRUE(std::filesystem::exists(path)) << name;
    EXPECT_EQ(std::filesystem::file_size(path), closure * 24) << name;
  }
  // PSO index must be sorted by (p, s, o).
  auto records = StatementLog::ReadAll(dir + "/index_pso.bin");
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), closure);
  for (size_t i = 1; i < records->size(); ++i) {
    const Triple& a = (*records)[i - 1];
    const Triple& b = (*records)[i];
    const bool sorted =
        a.p < b.p || (a.p == b.p && (a.s < b.s || (a.s == b.s && a.o <= b.o)));
    EXPECT_TRUE(sorted) << "record " << i;
  }
}

}  // namespace
}  // namespace slider
