#include <malloc.h>

#include <filesystem>

#include "rdf/dictionary_image.h"
#include "rdf/graph_io.h"
#include "reason/fragment.h"
#include "store/snapshot.h"
#include "store/statement_log.h"
#include "trace.h"
#include "inputs.h"
#include "workloads.h"
#include "workload/bsbm_generator.h"

namespace perfbench {

std::string GenerateDocument(uint64_t seed) {
  slider::BsbmGenerator::Options options;
  options.target_triples = kDocumentTriples;
  options.seed = seed;
  return slider::BsbmGenerator::GenerateNTriples(options);
}

slider::Repository::Options RepositoryOptions(const std::string& dir,
                                              bool hybrid) {
  slider::Repository::Options options;
  options.storage_dir = dir;
  options.inference = hybrid ? slider::Repository::InferenceMode::kHybrid
                             : slider::Repository::InferenceMode::kIncremental;
  return options;
}

std::string LogPath(const std::string& dir) { return dir + "/statements.log"; }

Loaded LoadRepository(const std::string& document, const std::string& dir,
                      bool hybrid) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Loaded out;
  // Hand the heap's free pages back first, so each set-up's growth is
  // measured from the same kind of baseline, not from pages an earlier
  // repository left for reuse.
  malloc_trim(0);
  const uint64_t rss_before = ResidentBytes();
  const Clock::time_point start = Clock::now();
  auto opened =
      slider::Repository::Open(slider::RdfsFactory(), RepositoryOptions(dir, hybrid));
  opened.status().AbortIfNotOk();
  out.repo = opened.MoveValueUnsafe();
  const Clock::time_point load_start = Clock::now();
  if (trace::Enabled()) {
    slider::TripleVec parsed;
    {
      ScopedSpan span("rdf.parse");
      auto result = slider::LoadNTriplesStringParallel(
          document, out.repo->dictionary());
      result.status().AbortIfNotOk();
      parsed = result.MoveValueUnsafe();
    }
    ScopedSpan span("reason.add");
    out.repo->AddTriples(parsed).status().AbortIfNotOk();
  } else {
    out.repo->Load(document).status().AbortIfNotOk();
  }
  out.load_s = SecondsSince(load_start);
  const IoCounters io_before = ReadIoCounters();
  const Clock::time_point checkpoint_start = Clock::now();
  {
    ScopedSpan span("store.checkpoint");
    out.repo->Checkpoint().AbortIfNotOk();
  }
  out.checkpoint_s = SecondsSince(checkpoint_start);
  out.open_load_checkpoint_s = SecondsSince(start);
  out.checkpoint_written = ReadIoCounters().written_bytes - io_before.written_bytes;
  const uint64_t rss_after = ResidentBytes();
  out.rss_growth = rss_after > rss_before ? rss_after - rss_before : 0;
  out.disk_bytes = DirectoryBytes(dir);
  out.log_bytes_after_checkpoint = FileBytes(LogPath(dir));
  out.explicit_triples = out.repo->explicit_count();
  out.stored_triples = out.repo->store().size();
  if (const slider::Reasoner* core = out.repo->incremental_core()) {
    uint64_t derivations = 0, inferred_new = 0;
    for (const auto& module : core->rule_stats()) {
      derivations += module.derivations;
      inferred_new += module.inferred_new;
      out.timeout_flushes += module.timeout_flushes;
    }
    out.useful_derivation_ratio =
        derivations == 0 ? 0.0
                         : static_cast<double>(inferred_new) /
                               static_cast<double>(derivations);
  }
  if (trace::Enabled()) {
    // The checkpoint images read back by the two image loaders alone, so
    // the rdf and store shares of recovery show apart from the log replay.
    slider::Dictionary dict;
    {
      ScopedSpan span("rdf.dict_image_load");
      slider::LoadDictionaryImage(dir + "/snapshot.dict", &dict).AbortIfNotOk();
    }
    slider::TripleStore store;
    ScopedSpan span("store.snapshot_load");
    slider::LoadTripleSnapshot(dir + "/snapshot.triples", &store)
        .status()
        .AbortIfNotOk();
  }
  return out;
}

Recovered RecoverRepository(const std::string& dir, bool hybrid) {
  Recovered out;
  {
    ScopedSpan span("store.read_log");
    auto log = slider::StatementLog::ReadLog(LogPath(dir));
    log.status().AbortIfNotOk();
    out.tail_records = log->records.size();
  }
  const IoCounters io_before = ReadIoCounters();
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span("store.recover");
    auto recovered = slider::Repository::Recover(
        slider::RdfsFactory(), RepositoryOptions(dir, hybrid));
    recovered.status().AbortIfNotOk();
    out.repo = recovered.MoveValueUnsafe();
  }
  out.seconds = SecondsSince(start);
  out.read_bytes = ReadIoCounters().read_bytes - io_before.read_bytes +
                   FileBytes(dir + "/snapshot.triples");
  return out;
}

}  // namespace perfbench
