#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "reason/repository.h"
#include "util.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space for repository directories
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;

  /// Counts one operation; an unexpected failure also clears `correct`.
  void Count(bool ok, bool expected_failure = false) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (!expected_failure) correct = false;
  }
};

Outcome RunIngest(const Args& args);
Outcome RunServe(const Args& args, bool hybrid);

// --- Stages shared by the workloads (stages.cc) ---------------------------

/// Generates the seeded BSBM N-Triples document.
std::string GenerateDocument(uint64_t seed);

slider::Repository::Options RepositoryOptions(const std::string& dir,
                                              bool hybrid);

/// One journaled repository brought up from the document: Open, Load
/// (parse-inclusive) and Checkpoint. In a traced run the load is issued as
/// its two layer calls (LoadNTriplesStringParallel, AddTriples) under
/// spans, and the checkpoint images are read back once more by
/// LoadDictionaryImage and LoadTripleSnapshot under spans of their own.
struct Loaded {
  std::unique_ptr<slider::Repository> repo;
  double open_load_checkpoint_s = 0.0;
  double load_s = 0.0;
  double checkpoint_s = 0.0;
  uint64_t rss_growth = 0;           // from before Open to after Checkpoint
  uint64_t checkpoint_written = 0;   // bytes Checkpoint wrote
  uint64_t disk_bytes = 0;           // storage directory after Checkpoint
  uint64_t log_bytes_after_checkpoint = 0;
  size_t explicit_triples = 0;
  size_t stored_triples = 0;         // closure (or explicit + schema closure)
  double useful_derivation_ratio = 0.0;
  uint64_t timeout_flushes = 0;
};
Loaded LoadRepository(const std::string& document, const std::string& dir,
                      bool hybrid);

/// Drops nothing itself: recovers the repository in `dir` (which must no
/// longer be open) and reports what recovery read.
struct Recovered {
  std::unique_ptr<slider::Repository> repo;
  double seconds = 0.0;
  uint64_t read_bytes = 0;  // read() bytes + the mmap'd triple image
  size_t tail_records = 0;  // log records replayed above the snapshot
};
Recovered RecoverRepository(const std::string& dir, bool hybrid);

std::string LogPath(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
