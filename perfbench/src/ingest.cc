// The ingest workload: parse-inclusive Load of the BSBM document into a
// journaled kIncremental RDFS repository, Checkpoint, a tail of update
// requests (some introducing terms never seen before), a drop of the
// repository and Recover — repeated in whole cycles for the run length.

#include <algorithm>
#include <filesystem>
#include <optional>

#include "net/result_serializer.h"
#include "oracle.h"
#include "query/endpoint.h"
#include "query/sparql.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Whole cycles run: one per kSecondsPerCycle of --seconds (a cycle with
/// its checks takes about 5 s of wall time), at least kMinCycles. The count
/// depends on the run length only, never on timing, so every run of one
/// length attempts the same operations.
constexpr int kSecondsPerCycle = 6;
constexpr int kMinCycles = 2;
/// Each tail statement is read back this many times after Recover, so the
/// read latencies have enough samples for a 99th percentile.
constexpr int kProbeRounds = 10;

/// Applies one tail update in process; returns its latency in ms.
double ApplyUpdate(slider::SparqlEndpoint* endpoint, slider::Repository* repo,
                   const std::string& text, uint64_t request,
                   uint64_t* derivations, bool* ok) {
  const Clock::time_point start = Clock::now();
  if (!trace::Enabled()) {
    auto result = endpoint->Update(text);
    *ok = result.ok();
    if (result.ok()) *derivations += result->derivations;
    return Millis(start, Clock::now());
  }
  // Traced: the update's two layer calls, each under its own span.
  ScopedSpan root("ingest.update", request);
  slider::Result<slider::UpdateRequest> parsed = [&] {
    ScopedSpan span("query.parse_update");
    return slider::SparqlParser::ParseUpdate(text, repo->dictionary());
  }();
  *ok = parsed.ok();
  if (!parsed.ok()) return Millis(start, Clock::now());
  ScopedSpan span("reason.execute_insert");
  auto result = repo->ExecuteUpdate(*parsed);
  *ok = result.ok();
  if (result.ok()) *derivations += result->derivations;
  return Millis(start, Clock::now());
}

/// Reads one tail statement back by its terms; true iff its object is
/// among the answers. Latency in ms via `millis`; rows via `rows`.
bool Probe(const slider::SparqlEndpoint& endpoint, const slider::Dictionary& dict,
           const TailStatement& tail, const std::string& text,
           uint64_t request, double* millis, size_t* rows) {
  const std::string wanted = CanonicalTerm(tail.statement.o);
  const Clock::time_point start = Clock::now();
  ScopedSpan span("query.select", request);
  auto result = endpoint.Select(text);
  *millis = Millis(start, Clock::now());
  if (!result.ok()) return false;
  *rows += result->rows.size();
  for (const auto& row : result->rows) {
    if (row.empty()) continue;
    auto term = dict.Decode(row[0]);
    if (term.ok() && CanonicalTerm(*term) == wanted) return true;
  }
  return false;
}

}  // namespace

Outcome RunIngest(const Args& args) {
  Outcome out;
  std::optional<StageLog> stage("generate");
  const std::string document = GenerateDocument(args.seed);
  stage.emplace("oracle");
  Oracle oracle(document);
  const Universe universe = oracle.BuildUniverse();
  stage.reset();
  const std::vector<TailStatement> tail = MakeTail(universe, args.seed);
  std::vector<std::string> update_texts, probe_texts;
  std::vector<Statement> tail_statements;
  for (const TailStatement& t : tail) {
    update_texts.push_back(t.UpdateText());
    probe_texts.push_back(t.ProbeText());
    tail_statements.push_back(t.statement);
  }
  // The terms the tail introduces, which Recover is known to lose.
  std::vector<std::string> new_terms;
  for (const TailStatement& t : tail) {
    for (const std::string* term : {&t.statement.s, &t.statement.p,
                                    &t.statement.o}) {
      if (!oracle.Knows(*term)) new_terms.push_back(*term);
    }
  }
  const std::string dir = args.workdir + "/ingest";

  // One entry per cycle. The timings of fixed work report the cycle least
  // disturbed by other tenants of the machine (see README).
  std::vector<double> setup_s, ingest_rate, checkpoint_s, recover_s,
      disk_per_triple, updates_per_s, selects_per_s, read_back, tail_records,
      log_per_update, rows_per_select, plan_hits, rss_mb, update_p50,
      update_p99, select_p50, select_p99;
  std::vector<double> useful_ratio, timeout_flushes;
  uint64_t derivations = 0;
  uint64_t request = 0;
  const int cycles = std::max(kMinCycles, args.seconds / kSecondsPerCycle);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    Loaded loaded = LoadRepository(document, dir, /*hybrid=*/false);
    // The live closure after Load against the oracle of the document, in
    // the first cycle; the oracle then takes the tail in too. It is one
    // operation with the check after the tail, so every cycle counts the
    // same operations.
    bool load_closure_ok = true;
    rss_mb.push_back(static_cast<double>(loaded.rss_growth) / (1 << 20));
    if (cycle == 0) {
      const ClosureDiff diff = oracle.Compare(loaded.repo->store(),
                                              *loaded.repo->dictionary(),
                                              false);
      if (!diff.ok()) {
        std::fprintf(stderr, "ingest: load closure differs: %s\n",
                     diff.ToString().c_str());
      }
      load_closure_ok = diff.ok();
      oracle.Extend(tail_statements);
    }
    setup_s.push_back(loaded.open_load_checkpoint_s);
    ingest_rate.push_back(static_cast<double>(loaded.explicit_triples) /
                          loaded.load_s);
    checkpoint_s.push_back(loaded.checkpoint_s);
    disk_per_triple.push_back(static_cast<double>(loaded.disk_bytes) /
                              static_cast<double>(loaded.stored_triples));
    useful_ratio.push_back(loaded.useful_derivation_ratio);
    timeout_flushes.push_back(static_cast<double>(loaded.timeout_flushes));

    // The post-checkpoint tail, one update request per statement.
    {
      slider::SparqlEndpoint endpoint(loaded.repo.get());
      std::vector<Clock::time_point> done;
      std::vector<double> update_ms;
      for (const std::string& text : update_texts) {
        bool ok = false;
        update_ms.push_back(ApplyUpdate(&endpoint, loaded.repo.get(), text,
                                        ++request, &derivations, &ok));
        done.push_back(Clock::now());
        out.Count(ok);
      }
      updates_per_s.push_back(MedianRate(std::move(done)));
      update_p50.push_back(Quantile(update_ms, 0.5));
      update_p99.push_back(Quantile(update_ms, 0.99));
    }
    const ClosureDiff live = oracle.Compare(loaded.repo->store(),
                                            *loaded.repo->dictionary(),
                                            false);
    if (!live.ok()) {
      std::fprintf(stderr, "ingest: closure after the tail differs: %s\n",
                   live.ToString().c_str());
    }
    out.Count(load_closure_ok && live.ok());
    loaded.repo.reset();  // the drop
    log_per_update.push_back(
        static_cast<double>(FileBytes(LogPath(dir)) -
                            loaded.log_bytes_after_checkpoint) /
        static_cast<double>(update_texts.size()));

    Recovered recovered = RecoverRepository(dir, /*hybrid=*/false);
    recover_s.push_back(recovered.seconds);
    read_back.push_back(static_cast<double>(recovered.read_bytes) /
                        static_cast<double>(loaded.checkpoint_written));
    tail_records.push_back(static_cast<double>(recovered.tail_records));

    // Read every tail statement back by its terms. A statement that
    // introduced a new term is expected to fail: the statement log
    // journals ids only, so terms first seen after the checkpoint are lost
    // on Recover.
    {
      slider::SparqlEndpoint endpoint(recovered.repo.get());
      const slider::Dictionary& dict = *recovered.repo->dictionary();
      size_t rows = 0, probes = 0;
      std::vector<Clock::time_point> done;
      std::vector<double> select_ms;
      for (int round = 0; round < kProbeRounds; ++round) {
        for (size_t i = 0; i < tail.size(); ++i) {
          double millis = 0.0;
          const bool found = Probe(endpoint, dict, tail[i], probe_texts[i],
                                   ++request, &millis, &rows);
          select_ms.push_back(millis);
          done.push_back(Clock::now());
          ++probes;
          out.Count(found, /*expected_failure=*/tail[i].new_term);
        }
      }
      selects_per_s.push_back(MedianRate(std::move(done)));
      select_p50.push_back(Quantile(select_ms, 0.5));
      select_p99.push_back(Quantile(select_ms, 0.99));
      rows_per_select.push_back(static_cast<double>(rows) /
                                static_cast<double>(probes));
      const auto stats = endpoint.stats();
      plan_hits.push_back(static_cast<double>(stats.plan_hits) /
                          static_cast<double>(std::max<uint64_t>(1, stats.selects)));
    }
    // The rest of the recovered closure must match the live one; a triple
    // that mentions a new term may only be held under undecodable ids.
    const ClosureDiff diff = oracle.Compare(recovered.repo->store(),
                                            *recovered.repo->dictionary(),
                                            false, new_terms);
    if (!diff.ok()) {
      std::fprintf(stderr, "ingest: recovered closure differs: %s\n",
                   diff.ToString().c_str());
    }
    out.Count(diff.ok());
    std::fprintf(stderr,
                 "ingest cycle %d: setup %.3fs load %.3fs checkpoint %.3fs "
                 "recover %.3fs; recovered store holds %zu triples with ids "
                 "its dictionary cannot decode\n",
                 cycle, loaded.open_load_checkpoint_s, loaded.load_s,
                 loaded.checkpoint_s, recovered.seconds, diff.undecodable);
  }
  std::filesystem::remove_all(dir);

  Report e2e;
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("rss_mb", Median(rss_mb), "MiB");
  e2e.Set("ingest_triples_per_s", Max(ingest_rate), "triples/s");
  e2e.Set("checkpoint_s", Min(checkpoint_s), "s");
  e2e.Set("recover_s", Min(recover_s), "s");
  e2e.Set("disk_bytes_per_triple", Median(disk_per_triple), "B/triple");
  e2e.Set("select_p50_ms", Min(select_p50), "ms");
  e2e.Set("select_p99_ms", Min(select_p99), "ms");
  e2e.Set("selects_per_s", Max(selects_per_s), "1/s");
  e2e.Set("update_p50_ms", Min(update_p50), "ms");
  e2e.Set("update_p99_ms", Min(update_p99), "ms");
  e2e.Set("updates_per_s", Max(updates_per_s), "1/s");
  if (!args.trace) {
    out.report = e2e;
    return out;
  }
  e2e.Log("end-to-end figures of this traced run (tracing on):");

  Report& r = out.report;
  const std::vector<Span> spans = trace::Collect();
  const auto span_s = [&](const char* name) {
    return Median(trace::Millis(spans, name)) / 1000.0;
  };
  r.Set("rdf.parse_s", span_s("rdf.parse"), "s");
  r.Set("rdf.dict_image_load_s", span_s("rdf.dict_image_load"), "s");
  r.Set("reason.add_s", span_s("reason.add"), "s");
  r.Set("reason.useful_derivation_ratio", Median(useful_ratio), "ratio");
  r.Set("reason.timeout_flushes", Median(timeout_flushes), "count");
  r.Set("reason.insert_ms_p50",
        Median(trace::Millis(spans, "reason.execute_insert")), "ms");
  r.Set("reason.delete_ms_p50", 0.0, "ms");
  r.Set("reason.derivations_per_update",
        static_cast<double>(derivations) /
            static_cast<double>(update_texts.size() * setup_s.size()),
        "count");
  r.Set("store.snapshot_load_s", span_s("store.snapshot_load"), "s");
  r.Set("store.read_back_ratio", Median(read_back), "ratio");
  r.Set("store.tail_records", Median(tail_records), "count");
  r.Set("store.log_bytes_per_update", Median(log_per_update), "B/update");
  r.Set("query.select_ms_p50", Median(trace::Millis(spans, "query.select")),
        "ms");
  r.Set("query.plan_hit_ratio", Median(plan_hits), "ratio");
  r.Set("query.rows_per_select", Median(rows_per_select), "rows");
  trace::WriteJsonLines(spans, args.workdir + "/trace-ingest-" +
                                   std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
