#include "core/hierarchy_sweep.h"

#include <cstdio>
#include <memory>

#include "base/check.h"
#include "core/hierarchy.h"
#include "modelcheck/task_check.h"
#include "obs/json.h"
#include "protocols/consensus_from_nm_pac.h"
#include "protocols/dac_from_nm_pac.h"
#include "sim/symmetry.h"

namespace lbsa::core {
namespace {

using modelcheck::TaskCheckOptions;
using modelcheck::TaskReport;

// Distinct inputs 100, 200, ... — the strongest validity test (a decided
// value pins down its proposer).
std::vector<Value> distinct_inputs(int p) {
  std::vector<Value> inputs;
  for (int i = 0; i < p; ++i) inputs.push_back(100 * (i + 1));
  return inputs;
}

// DAC inputs: the distinguished process proposes 100, every other process
// 200. Equal non-distinguished inputs put all of them in one symmetry
// orbit, so the quotient graph shrinks by up to (n-1)! — what keeps the
// n = 6 cells exhaustively explorable.
std::vector<Value> dac_inputs(int n) {
  std::vector<Value> inputs(static_cast<size_t>(n), 200);
  inputs[0] = 100;
  return inputs;
}

// One protocol instance of a sweep cell, pinned so its symmetry-reduced
// base run and its cross-check re-run share the same precomputed
// canonicalizer (group + orbit tables built once) and the row's orbit-cache
// pool. Null canonicalizer == trivial symmetry group (the explorer then
// ignores both fields).
struct CellInstance {
  std::shared_ptr<const sim::Protocol> protocol;
  std::shared_ptr<const sim::Canonicalizer> canonicalizer;
  std::shared_ptr<sim::CanonCachePool> pool;
};

std::shared_ptr<const sim::Canonicalizer> make_canonicalizer(
    const std::shared_ptr<const sim::Protocol>& protocol) {
  sim::SymmetrySpec spec = protocol->symmetry();
  if (spec.trivial()) return nullptr;
  return std::make_shared<const sim::Canonicalizer>(protocol,
                                                    std::move(spec));
}

TaskCheckOptions make_check_options(const SweepOptions& options,
                                    modelcheck::Reduction reduction,
                                    const CellInstance& cell) {
  TaskCheckOptions check;
  check.explore.engine = options.engine;
  check.explore.threads = options.threads;
  check.explore.max_nodes = options.max_nodes;
  check.explore.reduction = reduction;
  check.explore.canonicalizer = cell.canonicalizer;
  check.explore.canon_cache_pool = cell.pool;
  check.explore.progress = options.progress;
  return check;
}

SweepCheck to_sweep_check(const TaskReport& report, int processes) {
  SweepCheck check;
  check.ok = report.ok() && !report.partial;
  check.processes = processes;
  check.nodes = report.node_count;
  check.transitions = report.transition_count;
  check.nodes_full = report.full_node_estimate;
  check.reduction_ratio =
      report.node_count == 0
          ? 1.0
          : static_cast<double>(report.full_node_estimate) /
                static_cast<double>(report.node_count);
  return check;
}

CellInstance make_consensus_instance(
    int n, int m, const std::vector<Value>& inputs,
    std::shared_ptr<sim::CanonCachePool> pool) {
  CellInstance cell;
  cell.protocol =
      std::make_shared<protocols::ConsensusFromNmPacProtocol>(n, m, inputs);
  cell.canonicalizer = make_canonicalizer(cell.protocol);
  cell.pool = std::move(pool);
  return cell;
}

CellInstance make_dac_instance(int m, const std::vector<Value>& inputs,
                               std::shared_ptr<sim::CanonCachePool> pool) {
  CellInstance cell;
  cell.protocol = std::make_shared<protocols::DacFromNmPacProtocol>(
      inputs, m, /*distinguished_pid=*/0);
  cell.canonicalizer = make_canonicalizer(cell.protocol);
  cell.pool = std::move(pool);
  return cell;
}

StatusOr<TaskReport> check_consensus_instance(const CellInstance& cell,
                                              const std::vector<Value>& inputs,
                                              const SweepOptions& options,
                                              modelcheck::Reduction reduction) {
  return modelcheck::check_consensus_task(
      cell.protocol, inputs, make_check_options(options, reduction, cell));
}

StatusOr<TaskReport> check_dac_instance(const CellInstance& cell,
                                        const std::vector<Value>& inputs,
                                        const SweepOptions& options,
                                        modelcheck::Reduction reduction) {
  return modelcheck::check_dac_task(cell.protocol,
                                    /*distinguished_pid=*/0, inputs,
                                    make_check_options(options, reduction, cell));
}

// Re-runs `base_ok`'s instance under options.cross_check (if set) and
// errors on verdict disagreement — the reduction-equivalence certificate
// the artifact's "reproduced across reductions" claim rests on.
template <typename CheckFn>
Status cross_check_verdict(const SweepOptions& options, bool base_ok,
                           const std::string& what, CheckFn&& check_fn) {
  if (!options.cross_check.has_value()) return Status::ok();
  StatusOr<TaskReport> report_or = check_fn(*options.cross_check);
  if (!report_or.is_ok()) return report_or.status();
  const TaskReport& report = report_or.value();
  const bool ok = report.ok() && !report.partial;
  if (ok != base_ok) {
    return internal_error(
        "hierarchy sweep: " + what + " verdict under reduction=" +
        modelcheck::reduction_name(*options.cross_check) +
        " disagrees with the symmetry-reduced verdict");
  }
  return Status::ok();
}

std::string format_ratio(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ratio);
  return buf;
}

void write_check_json(obs::JsonWriter& w, const SweepCheck& check) {
  w.begin_object();
  w.key("ok");
  w.value_bool(check.ok);
  w.key("processes");
  w.value_int(check.processes);
  w.key("nodes");
  w.value_uint(check.nodes);
  w.key("transitions");
  w.value_uint(check.transitions);
  w.key("nodes_full");
  w.value_uint(check.nodes_full);
  w.key("reduction_ratio");
  w.value_raw(format_ratio(check.reduction_ratio));
  w.end_object();
}

// The schema/range/rows fields shared by the rows document and the full
// artifact — one writer so the two can never drift.
void write_rows_fields(obs::JsonWriter& w, const SweepResult& result) {
  w.key("lbsa_hierarchy_schema");
  w.value_int(1);
  w.key("n_min");
  w.value_int(result.n_min);
  w.key("n_max");
  w.value_int(result.n_max);
  w.key("rows");
  w.begin_array();
  for (const SweepRow& row : result.rows) {
    w.begin_object();
    w.key("n");
    w.value_int(row.n);
    w.key("m");
    w.value_int(row.m);
    w.key("object");
    w.value_string(row.object);
    w.key("declared_level");
    w.value_int(row.declared_level);
    w.key("level_source");
    w.value_string(row.level_source);
    w.key("consensus");
    write_check_json(w, row.consensus);
    w.key("consensus_ok_all_p");
    w.value_bool(row.consensus_ok_all_p);
    w.key("dac");
    write_check_json(w, row.dac);
    w.key("matches_catalog");
    w.value_bool(row.matches_catalog);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

bool SweepResult::all_ok() const {
  for (const SweepRow& row : rows) {
    if (!row.ok()) return false;
  }
  return !rows.empty();
}

StatusOr<SweepRow> run_hierarchy_row(int n, int m,
                                     const SweepOptions& options) {
  LBSA_CHECK(n >= 2 && m >= 1 && m <= n);

  SweepRow row;
  row.n = n;
  row.m = m;
  const HierarchyEntry entry = nm_pac_entry(n, m, /*k_max=*/1);
  row.object = entry.instance;
  row.declared_level = entry.level;
  row.level_source = entry.level_source;

  // One orbit-cache pool for the whole row: its caches are keyed by each
  // instance's universe salt, so the p-sweep and the dac check reuse the
  // same memory while never mixing entries across instances.
  auto pool = std::make_shared<sim::CanonCachePool>(
      modelcheck::ExploreOptions{}.canon_cache_bytes);

  // (a) m-consensus over the C port, for every process count p <= m.
  row.consensus_ok_all_p = true;
  for (int p = 1; p <= m; ++p) {
    const std::vector<Value> inputs = distinct_inputs(p);
    const CellInstance cell = make_consensus_instance(n, m, inputs, pool);
    StatusOr<TaskReport> report_or = check_consensus_instance(
        cell, inputs, options, modelcheck::Reduction::kSymmetry);
    if (!report_or.is_ok()) return report_or.status();
    const SweepCheck check = to_sweep_check(report_or.value(), p);
    row.consensus_ok_all_p = row.consensus_ok_all_p && check.ok;
    if (p == m) row.consensus = check;
    Status s = cross_check_verdict(
        options, check.ok,
        "consensus p=" + std::to_string(p) + " on " + row.object,
        [&](modelcheck::Reduction r) {
          return check_consensus_instance(cell, inputs, options, r);
        });
    if (!s.is_ok()) return s;
  }

  // (b) n-DAC over the PAC ports (Observation 5.1(b)).
  const std::vector<Value> inputs = dac_inputs(n);
  const CellInstance dac_cell = make_dac_instance(m, inputs, pool);
  StatusOr<TaskReport> dac_or = check_dac_instance(
      dac_cell, inputs, options, modelcheck::Reduction::kSymmetry);
  if (!dac_or.is_ok()) return dac_or.status();
  row.dac = to_sweep_check(dac_or.value(), n);
  Status s = cross_check_verdict(
      options, row.dac.ok, "dac on " + row.object,
      [&](modelcheck::Reduction r) {
        return check_dac_instance(dac_cell, inputs, options, r);
      });
  if (!s.is_ok()) return s;

  // (c) the machine-checked verdict equals the catalog's declared level.
  row.matches_catalog = row.declared_level == m && row.consensus_ok_all_p &&
                        row.dac.ok;
  return row;
}

StatusOr<SweepResult> run_hierarchy_sweep(const SweepOptions& options) {
  LBSA_CHECK(options.n_min >= 2 && options.n_min <= options.n_max);
  SweepResult result;
  result.n_min = options.n_min;
  result.n_max = options.n_max;
  for (int n = options.n_min; n <= options.n_max; ++n) {
    for (int m = 1; m <= n; ++m) {
      StatusOr<SweepRow> row_or = run_hierarchy_row(n, m, options);
      if (!row_or.is_ok()) return row_or.status();
      result.rows.push_back(std::move(row_or).value());
    }
  }
  return result;
}

std::string hierarchy_rows_json(const SweepResult& result) {
  obs::JsonWriter w;
  w.begin_object();
  write_rows_fields(w, result);
  w.end_object();
  return std::move(w).str();
}

std::string hierarchy_artifact_json(const SweepResult& result,
                                    const SweepProvenance& provenance) {
  obs::JsonWriter w;
  w.begin_object();
  write_rows_fields(w, result);
  w.key("provenance");
  w.begin_object();
  w.key("tool");
  w.value_string(provenance.tool);
  w.key("engine");
  w.value_string(provenance.engine);
  w.key("threads");
  w.value_int(provenance.threads);
  w.key("threads_available");
  w.value_int(provenance.threads_available);
  // Rows are always explored under pinned symmetry reduction (see
  // hierarchy_sweep.h); recorded here so readers need not infer it.
  w.key("reduction");
  w.value_string("symmetry");
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

std::string hierarchy_table_markdown(const SweepResult& result) {
  std::string out = "| n \\ m |";
  for (int m = 1; m <= result.n_max; ++m) {
    out += " " + std::to_string(m) + " |";
  }
  out += "\n|---|";
  for (int m = 1; m <= result.n_max; ++m) out += "---|";
  out += "\n";
  for (int n = result.n_min; n <= result.n_max; ++n) {
    out += "| **" + std::to_string(n) + "** |";
    for (int m = 1; m <= result.n_max; ++m) {
      if (m > n) {
        out += "  |";
        continue;
      }
      const SweepRow* found = nullptr;
      for (const SweepRow& row : result.rows) {
        if (row.n == n && row.m == m) {
          found = &row;
          break;
        }
      }
      if (found == nullptr) {
        out += " ? |";
      } else {
        out += " " + std::to_string(found->declared_level) +
               (found->ok() ? " ✓" : " ✗") + " |";
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace lbsa::core
