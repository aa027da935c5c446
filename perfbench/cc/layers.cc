// The traced run: times calls into each layer's public functions from
// outside, records a span around each call, and prints the raw work counts
// and busy times as one JSON line. Nothing inside the program is changed;
// the obs metrics registry is switched on only around the explorations
// whose volatile counters are read, never around a timed call.
//
// Layers (by module): sim, sim.symmetry, modelcheck.explorer,
// modelcheck.task_check, modelcheck.fuzz, modelcheck.run_task + obs.report,
// core.hierarchy_sweep, serve.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/arena.h"
#include "base/hashing.h"
#include "bench.h"
#include "check_dac6.h"
#include "core/hierarchy_sweep.h"
#include "modelcheck/batch_intern.h"
#include "modelcheck/corpus.h"
#include "modelcheck/explorer.h"
#include "modelcheck/run_task.h"
#include "modelcheck/task_check.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "protocols/dac_from_nm_pac.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve_mix.h"
#include "sim/config.h"
#include "sim/symmetry.h"

namespace lbsa_bench {

namespace mc = lbsa::modelcheck;
namespace sim = lbsa::sim;
namespace obs = lbsa::obs;
namespace serve = lbsa::serve;

namespace {

// Raw results, printed as one flat JSON object of numbers.
class RawOut {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }
  std::string json(const std::string& error) const {
    obs::JsonWriter w;
    w.begin_object();
    for (const auto& [name, value] : values_) {
      w.key(name);
      w.value_raw(std::to_string(value));
    }
    w.key("error");
    w.value_string(error);
    w.end_object();
    return std::move(w).str();
  }

 private:
  std::map<std::string, double> values_;
};

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& row : snap.counters) {
    if (row.name == name) return row.value;
  }
  return 0;
}

// trace.overhead_frac compares the workload's own operation traced and
// untraced in kOverheadPairs pairs. Which leg runs first alternates, so a
// host that speeds up or slows down during a pair tilts half the pairs
// each way; run.py reports the median of the pair ratios.
constexpr int kOverheadPairs = 3;

// One timed run of an operation: stores its measure (ns or ms) in *value
// and returns an error, or "" when the output was correct.
using Leg = std::function<std::string(double*)>;

// Runs the traced/untraced pairs and records each leg's measure as
// overhead.traced.K and overhead.untraced.K. The traced measures are also
// appended to *traced_values when it is given.
std::string overhead_pairs(const Leg& traced, const Leg& untraced,
                           RawOut* out,
                           std::vector<double>* traced_values = nullptr) {
  for (int k = 0; k < kOverheadPairs; ++k) {
    double t = 0;
    double u = 0;
    const bool traced_first = k % 2 == 0;
    if (traced_first) {
      if (std::string e = traced(&t); !e.empty()) return e;
    }
    if (std::string e = untraced(&u); !e.empty()) return e;
    if (!traced_first) {
      if (std::string e = traced(&t); !e.empty()) return e;
    }
    out->set("overhead.traced." + std::to_string(k), t);
    out->set("overhead.untraced." + std::to_string(k), u);
    if (traced_values != nullptr) traced_values->push_back(t);
  }
  return "";
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Runs `fn` with the obs metrics registry on and returns its snapshot.
template <typename Fn>
obs::MetricsSnapshot with_counters(Fn&& fn) {
  obs::Registry::global().reset_values();
  obs::set_metrics_enabled(true);
  fn();
  obs::set_metrics_enabled(false);
  return obs::Registry::global().snapshot();
}

// sim, modelcheck.explorer, modelcheck.task_check and the check facade, all
// on the flagged dac6 graph.
std::string probe_check_layers(SpanLog* log, std::uint64_t request,
                               bool time_untraced, RawOut* out) {
  auto task_or = mc::make_named_task("dac6");
  if (!task_or.is_ok()) return task_or.status().to_string();
  const mc::NamedTask& task = task_or.value();
  const mc::Explorer explorer(task.protocol);
  const mc::Explorer::FlagFn flag_fn = dac_flag_fn(task.distinguished_pid);
  const ScopedSpan root(log, "layers.check_dac6", "bench", 0, request);

  const std::uint64_t rss_before = proc_status_bytes("VmRSS");
  std::uint64_t t0 = now_ns();
  auto graph_or = [&] {
    const ScopedSpan s(log, "Explorer::explore.w1", "modelcheck.explorer",
                       root.id(), request);
    return explorer.explore(dac6_serial_options(), flag_fn, 0);
  }();
  out->set("explore_w1_ns", static_cast<double>(now_ns() - t0));
  if (!graph_or.is_ok()) return graph_or.status().to_string();
  const mc::ConfigGraph& graph = graph_or.value();
  if (std::string e = verify_dac6_graph(graph); !e.empty()) return e;
  const std::uint64_t rss_after = proc_status_bytes("VmRSS");
  out->set("explore_rss_growth_bytes",
           static_cast<double>(rss_after > rss_before ? rss_after - rss_before
                                                      : 0));
  out->set("explore_nodes", static_cast<double>(graph.nodes().size()));
  out->set("explore_transitions",
           static_cast<double>(graph.transition_count()));

  const sim::Protocol& protocol = *task.protocol;
  {
    std::vector<sim::Successor> succs;
    std::uint64_t calls = 0;
    std::uint64_t produced = 0;
    const ScopedSpan s(log, "sim::enumerate_successors", "sim", root.id(),
                       request);
    for (const mc::Node& node : graph.nodes()) {
      for (int pid = 0; pid < protocol.process_count(); ++pid) {
        if (!node.config.enabled(pid)) continue;
        succs.clear();
        sim::enumerate_successors(protocol, node.config, pid, &succs);
        ++calls;
        produced += succs.size();
      }
    }
    out->set("sim_successors_ns", static_cast<double>(s.elapsed_ns()));
    out->set("sim_successors_calls", static_cast<double>(calls));
    // Every transition of the complete graph is one produced successor.
    if (produced != graph.transition_count()) {
      return "enumerate_successors produced " + std::to_string(produced) +
             " successors, graph has " +
             std::to_string(graph.transition_count()) + " transitions";
    }
  }
  {
    std::vector<std::int64_t> words;
    std::uint64_t total_words = 0;
    const ScopedSpan s(log, "Config::encode_into", "sim", root.id(), request);
    for (const mc::Node& node : graph.nodes()) {
      node.config.encode_into(&words);
      total_words += words.size();
    }
    out->set("sim_encode_ns", static_cast<double>(s.elapsed_ns()));
    out->set("sim_encode_words", static_cast<double>(total_words));
  }
  {
    // Replays the graph's (encoding, flag) keys through the explorer's
    // interning substrate in kChunk-sized, shard-grouped batches.
    using Table = mc::BatchInternTable<std::uint32_t>;
    constexpr std::size_t kChunk = 64;
    Table table;
    lbsa::WordArena keys;
    lbsa::WordArena scratch;
    Table::Tally tally;
    std::vector<Table::Candidate> batch;
    std::vector<Table::Candidate*> order;
    std::uint64_t inserted = 0;
    const ScopedSpan s(log, "BatchInternTable::intern_batch",
                       "modelcheck.explorer", root.id(), request);
    const auto& nodes = graph.nodes();
    for (std::size_t base = 0; base < nodes.size(); base += kChunk) {
      const std::size_t end = std::min(nodes.size(), base + kChunk);
      scratch.reset();
      batch.assign(end - base, Table::Candidate{});
      order.clear();
      for (std::size_t i = base; i < end; ++i) {
        const sim::Config& config = nodes[i].config;
        const std::size_t len = config.encoded_size() + 1;
        std::int64_t* words = scratch.alloc(len);
        config.encode_to(words);
        words[len - 1] = nodes[i].flag;
        Table::Candidate& c = batch[i - base];
        c.key = std::span<const std::int64_t>(words, len);
        c.hash = lbsa::hash_words_128(c.key);
        c.payload = static_cast<std::uint32_t>(i);
        order.push_back(&c);
      }
      std::sort(order.begin(), order.end(),
                [](const Table::Candidate* a, const Table::Candidate* b) {
                  return Table::shard_of(a->hash) < Table::shard_of(b->hash);
                });
      for (std::size_t lo = 0; lo < order.size();) {
        const std::uint32_t shard = Table::shard_of(order[lo]->hash);
        std::size_t hi = lo;
        while (hi < order.size() && Table::shard_of(order[hi]->hash) == shard) {
          ++hi;
        }
        table.intern_batch(
            shard, std::span<Table::Candidate* const>(&order[lo], hi - lo),
            &keys, &tally);
        lo = hi;
      }
      for (const Table::Candidate& c : batch) inserted += c.inserted ? 1 : 0;
    }
    out->set("intern_ns", static_cast<double>(s.elapsed_ns()));
    if (inserted != nodes.size()) {
      return "intern replay inserted " + std::to_string(inserted) + " of " +
             std::to_string(nodes.size()) + " distinct graph keys";
    }
  }

  mc::ExploreOptions w4;
  w4.threads = kCheckWorkers;
  t0 = now_ns();
  {
    const ScopedSpan s(log, "Explorer::explore.w4", "modelcheck.explorer",
                       root.id(), request);
    auto g = explorer.explore(w4, flag_fn, 0);
    if (!g.is_ok()) return g.status().to_string();
    if (std::string e = verify_dac6_graph(g.value()); !e.empty()) return e;
  }
  out->set("explore_w4_ns", static_cast<double>(now_ns() - t0));
  const obs::MetricsSnapshot snap = with_counters([&] {
    const ScopedSpan s(log, "Explorer::explore.w4.counters",
                       "modelcheck.explorer", root.id(), request);
    auto g = explorer.explore(w4, flag_fn, 0);
    (void)g;
  });
  out->set("intern_cas_retries",
           static_cast<double>(
               counter_value(snap, "explore.intern.cas_retries")));
  out->set("steal_count",
           static_cast<double>(counter_value(snap, "explore.steal.count")));

  {
    mc::TaskCheckOptions options;
    options.explore = w4;
    const ScopedSpan s(log, "check_dac_task", "modelcheck.task_check",
                       root.id(), request);
    auto report = mc::check_dac_task(task.protocol, task.distinguished_pid,
                                     task.inputs, options);
    out->set("task_check_ns", static_cast<double>(s.elapsed_ns()));
    if (!report.is_ok()) return report.status().to_string();
    if (!report.value().ok() || report.value().node_count != kDac6Nodes) {
      return "check_dac_task: " + report.value().to_string();
    }
  }
  const Leg traced_check = [&](double* ns) {
    const ScopedSpan s(log, "run_check_task", "modelcheck.run_task",
                       root.id(), request);
    const mc::TaskRunResult result =
        mc::run_check_task(task, dac6_check_spec());
    *ns = static_cast<double>(s.elapsed_ns());
    return verify_dac6_check(result);
  };
  std::vector<double> check_ns;
  if (time_untraced) {
    const Leg untraced_check = [&](double* ns) {
      const std::uint64_t start = now_ns();
      const mc::TaskRunResult result =
          mc::run_check_task(task, dac6_check_spec());
      *ns = static_cast<double>(now_ns() - start);
      return verify_dac6_check(result);
    };
    if (std::string e = overhead_pairs(traced_check, untraced_check, out,
                                       &check_ns);
        !e.empty()) {
      return e;
    }
  } else {
    check_ns.emplace_back();
    if (std::string e = traced_check(&check_ns.back()); !e.empty()) return e;
  }
  // The denominator of the task_check shares.
  out->set("check_traced_ns", median_of(check_ns));
  return "";
}

// core.hierarchy_sweep and sim.symmetry on the configuration of
// `hierarchy_sweep_cli --engine serial --threads 1 --check-reduction both`.
// The full sweep's rows document must be byte-equal to the rows of the
// committed HIERARCHY.json (`committed`), which is that document plus
// provenance.
std::string probe_sweep_layers(SpanLog* log, std::uint64_t request,
                               const std::string& committed, RawOut* out) {
  lbsa::core::SweepOptions options;
  options.engine = mc::ExploreEngine::kSerial;
  options.threads = 1;
  lbsa::core::SweepOptions crossed = options;
  crossed.cross_check = mc::Reduction::kBoth;
  const ScopedSpan root(log, "layers.hierarchy_sweep", "bench", 0, request);

  double row_max = 0;
  double row_sum = 0;
  double plain_sum = 0;
  for (int n = options.n_min; n <= options.n_max; ++n) {
    for (int m = 1; m <= n; ++m) {
      std::uint64_t t0 = now_ns();
      {
        const ScopedSpan s(log, "run_hierarchy_row", "core.hierarchy_sweep",
                           root.id(), request);
        auto row = lbsa::core::run_hierarchy_row(n, m, crossed);
        if (!row.is_ok()) return row.status().to_string();
        if (!row.value().ok()) {
          return "row (" + std::to_string(n) + "," + std::to_string(m) +
                 ") failed verification";
        }
      }
      const double crossed_ns = static_cast<double>(now_ns() - t0);
      t0 = now_ns();
      {
        const ScopedSpan s(log, "run_hierarchy_row.no_cross_check",
                           "core.hierarchy_sweep", root.id(), request);
        auto row = lbsa::core::run_hierarchy_row(n, m, options);
        if (!row.is_ok()) return row.status().to_string();
      }
      plain_sum += static_cast<double>(now_ns() - t0);
      row_max = std::max(row_max, crossed_ns);
      row_sum += crossed_ns;
    }
  }
  out->set("row_max_ns", row_max);
  out->set("row_sum_ns", row_sum);
  out->set("row_plain_sum_ns", plain_sum);
  lbsa::StatusOr<lbsa::core::SweepResult> sweep =
      lbsa::Status(lbsa::StatusCode::kInternal, "sweep not run");
  const obs::MetricsSnapshot snap = with_counters([&] {
    const ScopedSpan s(log, "run_hierarchy_sweep.counters",
                       "core.hierarchy_sweep", root.id(), request);
    sweep = lbsa::core::run_hierarchy_sweep(crossed);
  });
  if (!sweep.is_ok()) return sweep.status().to_string();
  const std::string rows = lbsa::core::hierarchy_rows_json(sweep.value());
  if (rows.size() < 2 || rows.compare(rows.size() - 2, 2, "]}") != 0 ||
      committed.compare(0, rows.size() - 1, rows, 0, rows.size() - 1) != 0 ||
      committed.size() < rows.size() || committed[rows.size() - 1] != ',') {
    return "sweep rows differ from HIERARCHY.json rows";
  }
  out->set("sweep_explore_nodes",
           static_cast<double>(counter_value(snap, "explore.nodes")));
  out->set("canon_cache_hits",
           static_cast<double>(counter_value(snap, "explore.canon.cache_hits")));
  out->set("canon_cache_misses", static_cast<double>(counter_value(
                                     snap, "explore.canon.cache_misses")));
  out->set("por_skips",
           static_cast<double>(counter_value(snap, "explore.por.skips")));

  // Replays canonical_encode_into over every successor of the dac[6] row's
  // quotient graph — the calls its symmetry-reduced exploration makes.
  std::vector<lbsa::Value> inputs(6, 200);
  inputs[0] = 100;
  auto protocol = std::make_shared<lbsa::protocols::DacFromNmPacProtocol>(
      inputs, /*m=*/6, /*distinguished_pid=*/0);
  const sim::Canonicalizer canon(protocol, protocol->symmetry());
  mc::ExploreOptions eo;
  eo.engine = mc::ExploreEngine::kSerial;
  eo.threads = 1;
  eo.reduction = mc::Reduction::kSymmetry;
  eo.flag_fn_symmetric = true;
  auto graph = mc::Explorer(protocol).explore(eo, dac_flag_fn(0), 0);
  if (!graph.is_ok()) return graph.status().to_string();
  sim::CanonScratch scratch;
  sim::CanonCachePool pool(eo.canon_cache_bytes);
  scratch.attach_cache(pool.worker_cache(0, canon.universe_salt()));
  std::vector<sim::Successor> succs;
  std::vector<std::int64_t> words;
  std::vector<std::uint8_t> perm;
  std::uint64_t calls = 0;
  const ScopedSpan s(log, "Canonicalizer::canonical_encode_into",
                     "sim.symmetry", root.id(), request);
  for (const mc::Node& node : graph.value().nodes()) {
    for (int pid = 0; pid < protocol->process_count(); ++pid) {
      if (!node.config.enabled(pid)) continue;
      succs.clear();
      sim::enumerate_successors(*protocol, node.config, pid, &succs);
      for (const sim::Successor& succ : succs) {
        canon.canonical_encode_into(succ.config, &words, &perm, &scratch);
        ++calls;
      }
    }
  }
  out->set("canon_ns", static_cast<double>(s.elapsed_ns()));
  out->set("canon_calls", static_cast<double>(calls));
  out->set("canon_group_size", static_cast<double>(canon.group_size()));
  out->set("dac6_row_nodes", static_cast<double>(graph.value().nodes().size()));
  return "";
}

// modelcheck.fuzz and modelcheck.run_task + obs.report on serve-mix's fuzz
// shapes, then serve: parse_request and an in-process CheckService driven
// on the serve-mix schedule.
std::string probe_serve_layers(SpanLog* log, std::uint64_t request,
                               std::uint64_t seed, bool time_untraced,
                               RawOut* out) {
  // The service runs the schedule for 12 s: its 3600 requests hold 1080
  // hits, which leave the 10 samples beyond the hit p99 that run.py needs.
  constexpr std::uint64_t kServeSeconds = 12;
  // Each leg of the trace-overhead pairs runs a 4 s schedule.
  constexpr std::uint64_t kOverheadSeconds = 4;
  const std::vector<MixRequest> mix =
      make_mix(seed, 300 * kServeSeconds, "l-");
  const ScopedSpan root(log, "layers.serve_mix", "bench", 0, request);

  std::map<MixKind, int> fuzzed;
  for (const MixRequest& r : mix) {
    if (r.kind == MixKind::kHit || fuzzed[r.kind] >= 16) continue;
    ++fuzzed[r.kind];
    const std::string kind =
        r.kind == MixKind::kCoverage ? "coverage" : "blind";
    std::uint64_t t0 = now_ns();
    mc::FuzzTaskRunResult result = [&] {
      const ScopedSpan s(log, "run_fuzz_task." + kind, "modelcheck.fuzz",
                         root.id(), request);
      return run_fuzz_request(r);
    }();
    out->add("fuzz_" + kind + "_ns", static_cast<double>(now_ns() - t0));
    out->add("fuzz_" + kind + "_runs",
             static_cast<double>(result.fuzz.runs_executed));
    if (result.exit_code != 0) return r.id + ": fuzz exit " + result.error;

    t0 = now_ns();
    std::string line;
    {
      const ScopedSpan s(log, "RunReport::to_json+report_response",
                         "modelcheck.run_task", root.id(), request);
      line = fresh_report_line(r.id, std::move(result));
    }
    out->add("report_ns", static_cast<double>(now_ns() - t0));
    out->add("report_bytes", static_cast<double>(line.size()));
    out->add("report_count", 1);
  }

  {
    const ScopedSpan s(log, "serve::parse_request", "serve", root.id(),
                       request);
    for (const MixRequest& r : mix) {
      if (!serve::parse_request(r.line).is_ok()) return r.id + ": unparsable";
    }
    out->set("parse_ns", static_cast<double>(s.elapsed_ns()));
    out->set("parse_count", static_cast<double>(mix.size()));
  }

  // The in-process service on the serve-mix schedule, timed like the
  // socket run: each request is due at a fixed time and its span runs from
  // there to its report line. Children: generator lateness (due -> the
  // submit_line call), the submit_line call itself, and execution. A worker
  // runs one request at a time from the FIFO queue, so execution starts at
  // max(the submit_line call, the end of the previous request that worker
  // answered); what the children leave uncovered is queue wait.
  struct Timing {
    std::uint64_t due = 0;
    std::uint64_t call_start = 0;
    std::uint64_t call_end = 0;
    std::uint64_t exec_start = 0;
    std::uint64_t end = 0;
    bool cached = false;
  };
  // Drives one fresh service through `reqs`. The service's cache counts
  // go to `counts` when it is given.
  auto run_service = [&](const std::vector<MixRequest>& reqs, bool traced,
                         std::vector<Timing>* timings,
                         std::uint64_t* max_queued,
                         RawOut* counts) -> std::string {
    // Declared before the service: its workers call sinks that use these.
    std::mutex mu;
    std::condition_variable cv;
    std::size_t answered = 0;
    std::map<std::thread::id, std::uint64_t> worker_free_at;
    std::string first_error;
    timings->assign(reqs.size(), Timing{});
    serve::CheckService service(serve::ServiceOptions{4, 256});
    for (const std::string& line : warm_lines()) {
      std::promise<void> done;
      service.submit_line(line,
                          [&done](std::string_view) { done.set_value(); });
      done.get_future().wait();
    }
    auto sink_for = [&](std::size_t index) {
      return [&, index](std::string_view line) {
        const std::uint64_t t = now_ns();
        auto parsed = serve::parse_response(line);
        std::lock_guard<std::mutex> lock(mu);
        Timing& timing = (*timings)[index];
        const bool ok = parsed.is_ok() && parsed.value().type == "report" &&
                        parsed.value().exit_code == 0;
        if (!ok && first_error.empty()) {
          first_error =
              reqs[index].id + ": " + std::string(line.substr(0, 200));
        }
        timing.end = t;
        if (traced) {
          std::uint64_t& free_at = worker_free_at[std::this_thread::get_id()];
          timing.exec_start = std::max(free_at, timing.call_start);
          free_at = t;
        }
        timing.cached = ok && parsed.value().cached;
        ++answered;
        cv.notify_all();
      };
    };
    std::atomic<bool> sampling{true};
    std::thread sampler([&] {
      while (sampling.load()) {
        auto stats = obs::parse_json(service.stats_json());
        if (stats.is_ok()) {
          if (const obs::JsonValue* q = stats.value().find("queued")) {
            *max_queued = std::max<std::uint64_t>(
                *max_queued, static_cast<std::uint64_t>(q->int_value));
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    const std::uint64_t t0 = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      Timing& timing = (*timings)[i];
      timing.due = t0 + i * (1'000'000'000ull / 300);
      const std::uint64_t now = now_ns();
      if (timing.due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(timing.due - now));
      }
      timing.call_start = now_ns();
      service.submit_line(reqs[i].line, sink_for(i));
      const std::uint64_t call_end = now_ns();
      std::lock_guard<std::mutex> lock(mu);
      timing.call_end = call_end;
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return answered == reqs.size(); });
    }
    sampling.store(false);
    sampler.join();
    // Cache hit ratio as the service counts it (blind fuzz is never looked
    // up), over the timed requests only.
    auto stats = obs::parse_json(service.stats_json());
    if (counts != nullptr && stats.is_ok()) {
      if (const obs::JsonValue* cache = stats.value().find("cache")) {
        const obs::JsonValue* hits = cache->find("hits");
        const obs::JsonValue* misses = cache->find("misses");
        if (hits != nullptr && misses != nullptr) {
          // The warm-up's four lookups were misses.
          counts->set("cache_hits", static_cast<double>(hits->int_value));
          counts->set("cache_misses",
                      static_cast<double>(misses->int_value - kShapes));
        }
      }
    }
    service.shutdown();
    return first_error;
  };

  std::vector<Timing> timings;
  std::uint64_t max_queued = 0;
  if (std::string e = run_service(mix, true, &timings, &max_queued, out);
      !e.empty()) {
    return e;
  }
  out->set("queue_depth_max", static_cast<double>(max_queued));
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const Timing& t = timings[i];
    const std::uint64_t req_id = request + 1 + i;
    const std::uint64_t span_id = log->new_id();
    log->add({t.cached ? "request.hit" : "request.miss", "serve", t.due, t.end,
              span_id, root.id(), req_id, 0});
    log->add({"generator.late", "bench", t.due, t.call_start, log->new_id(),
              span_id, req_id, 0});
    log->add({"CheckService::submit_line", "serve", t.call_start, t.call_end,
              log->new_id(), span_id, req_id, 0});
    log->add({"execute", "serve", t.exec_start, t.end, log->new_id(), span_id,
              req_id, 1});
  }
  if (time_untraced) {
    // Median latency of a shorter schedule with and without the
    // per-worker execution bookkeeping the spans are built from.
    const std::vector<MixRequest> short_mix =
        make_mix(seed + 1, 300 * kOverheadSeconds, "o-");
    auto p50_ms = [&](bool traced, double* ms) -> std::string {
      std::vector<Timing> ts;
      std::uint64_t ignored = 0;
      if (std::string e = run_service(short_mix, traced, &ts, &ignored,
                                      nullptr);
          !e.empty()) {
        return e;
      }
      std::vector<double> v;
      for (const Timing& t : ts) {
        v.push_back(static_cast<double>(t.end - t.due) / 1e6);
      }
      *ms = median_of(std::move(v));
      return "";
    };
    return overhead_pairs([&](double* ms) { return p50_ms(true, ms); },
                          [&](double* ms) { return p50_ms(false, ms); }, out);
  }
  return "";
}

}  // namespace

int cmd_layers(const std::vector<std::string>& args) {
  const std::string trace_out = flag_value(args, "--trace-out");
  const std::string workload = flag_value(args, "--workload");
  std::ifstream hierarchy(flag_value(args, "--hierarchy"));
  const std::string committed{std::istreambuf_iterator<char>(hierarchy),
                              std::istreambuf_iterator<char>()};
  const std::uint64_t seed = flag_uint(args, "--seed");

  SpanLog log;
  RawOut out;
  std::string error =
      probe_check_layers(&log, 1, workload == "check-dac6", &out);
  if (error.empty()) {
    error = probe_sweep_layers(&log, 2, committed, &out);
  }
  if (error.empty()) {
    error = probe_serve_layers(&log, 1000, seed, workload == "serve-mix",
                               &out);
  }
  if (!trace_out.empty()) {
    if (const lbsa::Status s =
            obs::write_text_file(trace_out, log.to_chrome_json());
        !s.is_ok() && error.empty()) {
      error = s.to_string();
    }
  }
  std::printf("%s\n", out.json(error).c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace lbsa_bench
