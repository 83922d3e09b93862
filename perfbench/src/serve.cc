// The serve_forward and serve_hybrid workloads: the BSBM data in a
// journaled, checkpointed repository (kIncremental or kHybrid) behind
// SparqlHttpServer on loopback, driven by a closed loop of two reader and
// two writer keep-alive connections for the run length.

#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "net/result_serializer.h"
#include "net/server.h"
#include "oracle.h"
#include "query/endpoint.h"
#include "query/sparql.h"
#include "http_conn.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kReaders = 2;
constexpr int kWriters = 2;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
constexpr int kRecoveries = 2;
constexpr int kTimeoutMs = 10000;

uint64_t RequestId(int thread, uint64_t seq) {
  return (static_cast<uint64_t>(thread + 1) << 40) | seq;
}

struct SelectSample {
  uint32_t query = 0;  // index into ReaderLog::specs
  int status = 0;
  double total_ms = 0.0;
  double ttfb_ms = 0.0;
  uint64_t body_hash = 0;
  uint64_t request = 0;
  Clock::time_point done;
};

struct ReaderLog {
  std::vector<QuerySpec> specs;  // distinct query texts, first-seen order
  std::unordered_map<std::string, uint32_t> index;
  std::vector<SelectSample> samples;
  /// One body per distinct (query, body hash): identical responses are
  /// checked once and counted for every sample that received them.
  std::map<std::pair<uint32_t, uint64_t>, std::string> bodies;
};

struct UpdateSample {
  std::string text;
  int status = 0;
  double total_ms = 0.0;
  uint64_t request = 0;
  Clock::time_point done;
};

struct WriterLog {
  std::vector<UpdateSample> samples;
};

void RunReader(int reader, uint16_t port, const Universe& universe,
               uint64_t seed, Clock::time_point deadline, ReaderLog* log) {
  HttpConnection conn(port, kTimeoutMs);
  QueryStream stream(universe, seed, reader);
  uint64_t seq = 0;
  while (Clock::now() < deadline) {
    const QuerySpec spec = stream.Next();
    const std::string text = spec.Text();
    const auto [it, fresh] =
        log->index.emplace(text, static_cast<uint32_t>(log->specs.size()));
    if (fresh) log->specs.push_back(spec);
    SelectSample sample;
    sample.query = it->second;
    sample.request = RequestId(reader, ++seq);
    HttpReply reply;
    {
      ScopedSpan span("net.http_select", sample.request);
      reply = conn.Post("application/sparql-query", text);
    }
    sample.status = reply.status;
    sample.total_ms = reply.total_ms;
    sample.ttfb_ms = reply.ttfb_ms;
    sample.done = Clock::now();
    sample.body_hash = std::hash<std::string>()(reply.body);
    if (reply.status == 200) {
      log->bodies.try_emplace({sample.query, sample.body_hash},
                              std::move(reply.body));
    } else {
      std::fprintf(stderr, "select failed: status %d %s\n", reply.status,
                   reply.error.c_str());
    }
    log->samples.push_back(sample);
  }
}

void RunWriter(int writer, uint16_t port, const Universe& universe,
               uint64_t seed, Clock::time_point deadline, WriterLog* log) {
  HttpConnection conn(port, kTimeoutMs);
  WriterStream stream(universe, seed, writer);
  uint64_t seq = 0;
  bool closing = false;
  while (!closing) {
    // After the deadline, one closing request deletes the last entity, so
    // the final explicit set is the base data again.
    closing = Clock::now() >= deadline;
    std::string text = closing ? stream.Finish() : stream.Next();
    if (text.empty()) break;
    UpdateSample sample;
    sample.request = RequestId(kReaders + writer, ++seq);
    HttpReply reply;
    {
      ScopedSpan span("net.http_update", sample.request);
      reply = conn.Post("application/sparql-update", text);
    }
    if (reply.status != 200) {
      std::fprintf(stderr, "update failed: status %d %s %s\n", reply.status,
                   reply.error.c_str(), reply.body.c_str());
    }
    sample.done = Clock::now();
    sample.status = reply.status;
    sample.total_ms = reply.total_ms;
    sample.text = std::move(text);
    log->samples.push_back(std::move(sample));
  }
}

/// True iff `got` holds every row of `want` (sorted), and every row beyond
/// them binds an entity the writers inserted.
bool ContainsOracle(const std::vector<Row>& want, std::vector<Row> got) {
  std::sort(got.begin(), got.end());
  size_t w = 0;
  for (const Row& row : got) {
    if (w < want.size() && row == want[w]) {
      ++w;
      continue;
    }
    bool writer_entity = false;
    for (const std::string& term : row) {
      if (term.rfind(kWriterPrefix, 0) == 0) writer_entity = true;
    }
    if (!writer_entity) return false;
  }
  return w == want.size();
}

/// A serving stack: repository, endpoint and HTTP server, torn down in
/// reverse order.
struct Serving {
  Loaded loaded;
  std::unique_ptr<slider::SparqlEndpoint> endpoint;
  std::unique_ptr<slider::net::SparqlHttpServer> server;
  double setup_s = 0.0;

  void StopServer() {
    if (server != nullptr) server->Stop();
    server.reset();
    endpoint.reset();
  }
};

Serving SetUp(const std::string& document, const std::string& dir, bool hybrid) {
  Serving s;
  s.loaded = LoadRepository(document, dir, hybrid);
  const Clock::time_point start = Clock::now();
  s.endpoint = std::make_unique<slider::SparqlEndpoint>(s.loaded.repo.get());
  s.server = std::make_unique<slider::net::SparqlHttpServer>(
      s.endpoint.get(), slider::net::SparqlHttpServer::Options());
  s.server->Start().AbortIfNotOk();
  s.setup_s = s.loaded.open_load_checkpoint_s + SecondsSince(start);
  return s;
}

/// Counts rows while forwarding them to the JSON serializer.
class CountingSink : public slider::RowSink {
 public:
  explicit CountingSink(slider::RowSink* inner) : inner_(inner) {}
  bool OnHeader(const std::vector<std::string>& variables) override {
    return inner_->OnHeader(variables);
  }
  bool OnRow(const std::vector<slider::TermId>& row) override {
    ++rows_;
    return inner_->OnRow(row);
  }
  size_t rows() const { return rows_; }

 private:
  slider::RowSink* inner_;
  size_t rows_ = 0;
};

/// The traced run's second pass: the same requests, in the same order per
/// client, issued by calling the endpoint and the repository directly.
struct ReplayTotals {
  uint64_t rows = 0, selects = 0, derivations = 0, updates = 0;
};
ReplayTotals Replay(slider::Repository* repo, slider::SparqlEndpoint* endpoint,
                    const std::vector<ReaderLog>& readers,
                    const std::vector<WriterLog>& writers) {
  std::mutex update_mu;  // ExecuteUpdate callers must be serialized
  std::vector<ReplayTotals> totals(readers.size() + writers.size());
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers.size(); ++r) {
    threads.emplace_back([&, r] {
      const slider::Dictionary* dict = repo->dictionary();
      for (const SelectSample& sample : readers[r].samples) {
        const std::string text = readers[r].specs[sample.query].Text();
        std::string body;
        slider::net::JsonSerializer json(dict, [&](std::string_view data) {
          body.append(data);
          return true;
        });
        CountingSink sink(&json);
        ScopedSpan span("query.select_streaming", sample.request);
        endpoint->SelectStreaming(text, &sink).AbortIfNotOk();
        json.Finish();
        totals[r].rows += sink.rows();
        ++totals[r].selects;
      }
    });
  }
  for (size_t w = 0; w < writers.size(); ++w) {
    threads.emplace_back([&, w] {
      ReplayTotals& t = totals[readers.size() + w];
      for (const UpdateSample& sample : writers[w].samples) {
        ScopedSpan root("replay.update", sample.request);
        slider::Result<slider::UpdateRequest> parsed = [&] {
          ScopedSpan span("query.parse_update");
          return slider::SparqlParser::ParseUpdate(sample.text,
                                                   repo->dictionary());
        }();
        parsed.status().AbortIfNotOk();
        // One ExecuteUpdate call per operation, so deletes and inserts are
        // timed apart; the request stays atomic against the other writer.
        std::lock_guard<std::mutex> lock(update_mu);
        for (slider::UpdateOp& op : parsed->ops) {
          const bool insert = op.kind == slider::UpdateOp::Kind::kInsertData;
          slider::UpdateRequest single;
          single.ops.push_back(std::move(op));
          ScopedSpan span(insert ? "reason.execute_insert"
                                 : "reason.execute_delete");
          auto result = repo->ExecuteUpdate(single);
          result.status().AbortIfNotOk();
          t.derivations += result->derivations;
        }
        ++t.updates;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ReplayTotals sum;
  for (const ReplayTotals& t : totals) {
    sum.rows += t.rows;
    sum.selects += t.selects;
    sum.derivations += t.derivations;
    sum.updates += t.updates;
  }
  return sum;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

Outcome RunServe(const Args& args, bool hybrid) {
  Outcome out;
  std::optional<StageLog> stage("generate");
  const std::string document = GenerateDocument(args.seed);
  stage.emplace("oracle");
  Oracle oracle(document);
  const Universe universe = oracle.BuildUniverse();
  stage.emplace("set-ups");
  const std::string dir = args.workdir + (hybrid ? "/serve_hybrid" : "/serve_forward");

  // Set-up, several times; the last stack serves.
  std::vector<double> setup_s, ingest_rate, checkpoint_s, disk_per_triple,
      rss_mb;
  Serving serving;
  const int setups = args.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    if (i > 0) {
      serving.StopServer();
      serving.loaded.repo.reset();
    }
    serving = SetUp(document, dir, hybrid);
    rss_mb.push_back(static_cast<double>(serving.loaded.rss_growth) /
                     (1 << 20));
    setup_s.push_back(serving.setup_s);
    ingest_rate.push_back(static_cast<double>(serving.loaded.explicit_triples) /
                          serving.loaded.load_s);
    checkpoint_s.push_back(serving.loaded.checkpoint_s);
    disk_per_triple.push_back(
        static_cast<double>(serving.loaded.disk_bytes) /
        static_cast<double>(serving.loaded.stored_triples));
  }
  slider::Repository* repo = serving.loaded.repo.get();
  slider::SparqlEndpoint* endpoint = serving.endpoint.get();
  const uint16_t port = serving.server->port();
  stage.emplace("timed phase");

  // The timed phase: a closed loop of two readers and two writers.
  const auto endpoint_before = endpoint->stats();
  const auto coalescer_before = serving.server->coalescer().stats();
  const slider::HybridProvider* provider = repo->hybrid_provider();
  const auto routes_before =
      provider ? provider->route_stats() : slider::HybridProvider::RouteStats();
  const auto tables_before =
      provider ? provider->tables().stats() : slider::TablingCache::Stats();
  std::vector<ReaderLog> readers(kReaders);
  std::vector<WriterLog> writers(kWriters);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(args.seconds);
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back(RunReader, r, port, std::cref(universe), args.seed,
                           deadline, &readers[r]);
    }
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back(RunWriter, w, port, std::cref(universe), args.seed,
                           deadline, &writers[w]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double phase_s = SecondsSince(start);
  const auto endpoint_after = endpoint->stats();
  const auto coalescer_after = serving.server->coalescer().stats();
  const auto routes_after =
      provider ? provider->route_stats() : slider::HybridProvider::RouteStats();
  const auto tables_after =
      provider ? provider->tables().stats() : slider::TablingCache::Stats();

  ReplayTotals replay;
  if (args.trace) {
    stage.emplace("in-process replay");
    replay = Replay(repo, endpoint, readers, writers);
  }

  stage.emplace("response checks");
  // Every SELECT response recorded above, against the oracle's answer over
  // the base data.
  std::vector<double> select_ms, ttfb_ms, update_ms;
  std::vector<Clock::time_point> select_done, update_done;
  std::map<std::string, std::vector<Row>> answers;
  const auto answer = [&](const QuerySpec& spec) -> const std::vector<Row>& {
    auto it = answers.find(spec.Text());
    if (it == answers.end()) {
      it = answers.emplace(spec.Text(), oracle.Answer(spec)).first;
    }
    return it->second;
  };
  size_t selects = 0, updates = 0, bad_responses = 0;
  for (const ReaderLog& log : readers) {
    std::map<std::pair<uint32_t, uint64_t>, bool> body_ok;
    for (const auto& [key, body] : log.bodies) {
      std::vector<Row> rows;
      const bool ok = ParseSparqlJson(body, &rows) &&
                      ContainsOracle(answer(log.specs[key.first]), rows);
      if (!ok) {
        std::fprintf(stderr, "response differs from the oracle: %s\n",
                     log.specs[key.first].Text().c_str());
      }
      body_ok[key] = ok;
    }
    for (const SelectSample& s : log.samples) {
      const bool ok = s.status == 200 && body_ok[{s.query, s.body_hash}];
      if (!ok) ++bad_responses;
      out.Count(ok);
      select_ms.push_back(s.total_ms);
      select_done.push_back(s.done);
      ttfb_ms.push_back(s.ttfb_ms);
      ++selects;
    }
  }
  for (const WriterLog& log : writers) {
    for (const UpdateSample& s : log.samples) {
      out.Count(s.status == 200);
      update_ms.push_back(s.total_ms);
      update_done.push_back(s.done);
      ++updates;
    }
  }

  // Quiescence: the state must equal the oracle's.
  stage.emplace("quiescence checks");
  if (!hybrid) {
    const ClosureDiff diff =
        oracle.Compare(repo->store(), *repo->dictionary(), false);
    if (!diff.ok()) {
      std::fprintf(stderr, "closure at quiescence differs: %s\n",
                   diff.ToString().c_str());
    }
    out.Count(diff.ok());
  } else {
    const ClosureDiff diff =
        oracle.Compare(repo->store(), *repo->dictionary(), true);
    if (!diff.ok()) {
      std::fprintf(stderr, "explicit set at quiescence differs: %s\n",
                   diff.ToString().c_str());
    }
    out.Count(diff.ok());
    // Every query issued during the run, answered again (in process, on
    // as many threads as the load used).
    std::map<std::string, QuerySpec> issued;
    for (const ReaderLog& log : readers) {
      for (const QuerySpec& spec : log.specs) issued.emplace(spec.Text(), spec);
    }
    std::vector<const QuerySpec*> specs;
    for (const auto& [text, spec] : issued) {
      specs.push_back(&spec);
      answer(spec);  // fill the oracle cache before the threads read it
    }
    std::vector<char> ok(specs.size(), 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaders + kWriters; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < specs.size();
             i += kReaders + kWriters) {
          const std::string text = specs[i]->Text();
          auto result = endpoint->Select(text);
          if (!result.ok()) continue;
          std::vector<Row> rows;
          for (const auto& ids : result->rows) {
            Row row;
            for (slider::TermId id : ids) {
              auto term = repo->dictionary()->Decode(id);
              row.push_back(term.ok() ? CanonicalTerm(*term) : "?");
            }
            rows.push_back(std::move(row));
          }
          std::sort(rows.begin(), rows.end());
          ok[i] = rows == answers.at(text);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t i = 0; i < specs.size(); ++i) {
      if (!ok[i]) {
        std::fprintf(stderr, "quiescent answer differs: %s\n",
                     specs[i]->Text().c_str());
      }
      out.Count(ok[i] != 0);
    }
  }

  // Restart: drop the repository and recover it from its directory.
  stage.emplace("recover and check");
  serving.StopServer();
  const uint64_t log_after_checkpoint = serving.loaded.log_bytes_after_checkpoint;
  const uint64_t checkpoint_written = serving.loaded.checkpoint_written;
  serving.loaded.repo.reset();
  const uint64_t log_bytes = FileBytes(LogPath(dir)) - log_after_checkpoint;
  // Recovered several times; recover_s is the least disturbed of them.
  Recovered recovered;
  std::vector<double> recover_s;
  for (int i = 0; i < kRecoveries; ++i) {
    recovered.repo.reset();
    recovered = RecoverRepository(dir, hybrid);
    recover_s.push_back(recovered.seconds);
  }
  {
    const ClosureDiff diff = oracle.Compare(
        recovered.repo->store(), *recovered.repo->dictionary(), hybrid);
    if (!diff.ok()) {
      std::fprintf(stderr, "recovered state differs: %s\n",
                   diff.ToString().c_str());
    }
    out.Count(diff.ok());
  }
  recovered.repo.reset();
  std::filesystem::remove_all(dir);
  stage.reset();
  std::set<std::string> distinct;
  for (const ReaderLog& log : readers) {
    for (const QuerySpec& spec : log.specs) distinct.insert(spec.Text());
  }
  std::fprintf(stderr,
               "%s: %zu selects (%zu distinct texts), %zu updates in %.2fs; "
               "%zu bad responses; setup %.3fs recover %.3fs (%zu tail "
               "records)\n",
               args.workload.c_str(), selects, distinct.size(), updates,
               phase_s, bad_responses, Median(setup_s), Min(recover_s),
               recovered.tail_records);

  Report e2e;
  e2e.Set("setup_s", Median(setup_s), "s");
  e2e.Set("rss_mb", Median(rss_mb), "MiB");
  e2e.Set("ingest_triples_per_s", Max(ingest_rate), "triples/s");
  e2e.Set("checkpoint_s", Min(checkpoint_s), "s");
  e2e.Set("recover_s", Min(recover_s), "s");
  e2e.Set("disk_bytes_per_triple", Median(disk_per_triple), "B/triple");
  e2e.Set("select_p50_ms", Quantile(select_ms, 0.5), "ms");
  e2e.Set("select_p99_ms", Quantile(select_ms, 0.99), "ms");
  e2e.Set("selects_per_s", MedianRate(select_done), "1/s");
  e2e.Set("update_p50_ms", Quantile(update_ms, 0.5), "ms");
  e2e.Set("update_p99_ms", Quantile(update_ms, 0.99), "ms");
  e2e.Set("updates_per_s", MedianRate(update_done), "1/s");
  if (!args.trace) {
    out.report = e2e;
    return out;
  }
  e2e.Log("end-to-end figures of this traced run (tracing on):");

  const std::vector<Span> spans = trace::Collect();
  Report& r = out.report;
  const auto span_s = [&](const char* name) {
    return Median(trace::Millis(spans, name)) / 1000.0;
  };
  r.Set("rdf.parse_s", span_s("rdf.parse"), "s");
  r.Set("rdf.dict_image_load_s", span_s("rdf.dict_image_load"), "s");
  r.Set("reason.add_s", span_s("reason.add"), "s");
  r.Set("reason.useful_derivation_ratio",
        serving.loaded.useful_derivation_ratio, "ratio");
  r.Set("reason.timeout_flushes",
        static_cast<double>(serving.loaded.timeout_flushes), "count");
  const auto inserts = trace::MillisByRequest(spans, "reason.execute_insert");
  const auto deletes = trace::MillisByRequest(spans, "reason.execute_delete");
  const auto http_update = trace::MillisByRequest(spans, "net.http_update");
  std::vector<double> update_wait;
  for (const auto& [request, http] : http_update) {
    const auto in = inserts.find(request);
    const auto del = deletes.find(request);
    update_wait.push_back(http - (in == inserts.end() ? 0.0 : in->second) -
                          (del == deletes.end() ? 0.0 : del->second));
  }
  r.Set("reason.insert_ms_p50", Median(trace::Millis(spans, "reason.execute_insert")), "ms");
  r.Set("reason.delete_ms_p50", Median(trace::Millis(spans, "reason.execute_delete")), "ms");
  r.Set("reason.derivations_per_update",
        Ratio(static_cast<double>(replay.derivations),
              static_cast<double>(replay.updates)),
        "count");
  r.Set("store.snapshot_load_s", span_s("store.snapshot_load"), "s");
  r.Set("store.read_back_ratio",
        Ratio(static_cast<double>(recovered.read_bytes),
              static_cast<double>(checkpoint_written)),
        "ratio");
  r.Set("store.tail_records", static_cast<double>(recovered.tail_records),
        "count");
  r.Set("store.log_bytes_per_update",
        Ratio(static_cast<double>(log_bytes),
              static_cast<double>(updates + replay.updates)),
        "B/update");
  r.Set("query.select_ms_p50",
        Median(trace::Millis(spans, "query.select_streaming")), "ms");
  const double http_selects =
      static_cast<double>(endpoint_after.selects - endpoint_before.selects);
  r.Set("query.plan_hit_ratio",
        Ratio(static_cast<double>(endpoint_after.plan_hits -
                                  endpoint_before.plan_hits),
              http_selects),
        "ratio");
  r.Set("query.rows_per_select",
        Ratio(static_cast<double>(replay.rows),
              static_cast<double>(replay.selects)),
        "rows");
  const double forward_calls =
      static_cast<double>(routes_after.forward - routes_before.forward);
  const double backward_calls =
      static_cast<double>(routes_after.backward - routes_before.backward);
  r.Set("hybrid.backward_share",
        Ratio(backward_calls, forward_calls + backward_calls), "ratio");
  r.Set("hybrid.backward_ms_per_row", routes_after.backward_ms_per_row, "ms");
  const double hits = static_cast<double>(tables_after.hits - tables_before.hits);
  const double misses =
      static_cast<double>(tables_after.misses - tables_before.misses);
  r.Set("tabling.hit_ratio", Ratio(hits, hits + misses), "ratio");
  r.Set("tabling.invalidated_per_update",
        Ratio(static_cast<double>(tables_after.invalidated -
                                  tables_before.invalidated),
              static_cast<double>(updates)),
        "count");
  r.Set("tabling.oversize_skips",
        static_cast<double>(tables_after.oversize_skips -
                            tables_before.oversize_skips),
        "count");
  r.Set("net.ttfb_p50_ms", Median(ttfb_ms), "ms");
  const auto in_process = trace::MillisByRequest(spans, "query.select_streaming");
  const auto http_select = trace::MillisByRequest(spans, "net.http_select");
  std::vector<double> self_ms;
  for (const auto& [request, http] : http_select) {
    const auto in = in_process.find(request);
    if (in != in_process.end()) self_ms.push_back(http - in->second);
  }
  r.Set("net.self_ms_per_select", Mean(self_ms), "ms");
  r.Set("net.update_wait_ms_p50", Median(update_wait), "ms");
  r.Set("coalescer.ops_per_batch",
        Ratio(static_cast<double>(coalescer_after.requests -
                                  coalescer_before.requests),
              static_cast<double>(coalescer_after.batches -
                                  coalescer_before.batches)),
        "ops/batch");
  trace::WriteJsonLines(spans, args.workdir + "/trace-" + args.workload + "-" +
                                   std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace perfbench
