// The machine-checked (n,m)-PAC hierarchy sweep: for every (n, m) with
// n_min <= n <= n_max and 1 <= m <= n, certify the constructive direction of
// Theorems 5.2/5.3 under ALL schedules —
//
//   (a) the consensus port of the (n,m)-PAC object solves m-consensus for
//       every process count p in [1, m] (ConsensusFromNmPacProtocol,
//       explored exhaustively);
//   (b) the PAC ports solve the n-DAC problem (DacFromNmPacProtocol,
//       Observation 5.1(b));
//   (c) the verdict matches the level declared by core::nm_pac_entry — the
//       parameterized family row of hierarchy_catalog, whose (n+1, n)
//       instance is the paper's separating object O_n.
//
// The sweep's output is a consensus-power table (HIERARCHY.json via
// tools/hierarchy_sweep_cli + tools/hierarchy_report.sh) whose row section
// is fully deterministic: rows carry only graph-derived data (node counts,
// transition counts, full-graph estimates, reduction ratios), all explored
// under pinned symmetry reduction, so the rows document is byte-identical
// across engines, thread counts, and cross-check reduction modes — the
// canonical-graph guarantee extended to the artifact level.
#ifndef LBSA_CORE_HIERARCHY_SWEEP_H_
#define LBSA_CORE_HIERARCHY_SWEEP_H_

#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "modelcheck/explorer.h"

namespace lbsa::core {

struct SweepOptions {
  int n_min = 2;
  int n_max = 6;
  // Engine/threads used to build each row's configuration graphs. Complete
  // graphs are bit-identical across these by the canonical-graph guarantee,
  // so they are provenance, not semantics.
  modelcheck::ExploreEngine engine = modelcheck::ExploreEngine::kAuto;
  int threads = 0;
  // Node budget per exploration; exceeding it fails the row (the sweep
  // never truncates — a partial graph cannot certify "under all schedules").
  std::uint64_t max_nodes = 5'000'000;
  // When set, every task verdict is re-checked under this reduction mode
  // and the row run fails on any disagreement. Recorded row statistics
  // always come from the pinned symmetry-reduced exploration, keeping the
  // rows document byte-identical whether or not a cross-check ran.
  std::optional<modelcheck::Reduction> cross_check;
  // Every cell's exploration adds to this Progress (non-owning; null =
  // unobserved), so one heartbeat stream shows sweep-wide totals.
  obs::Progress* progress = nullptr;
};

// Statistics of one exhaustively checked task instance (complete graph,
// symmetry reduction pinned).
struct SweepCheck {
  bool ok = false;
  int processes = 0;
  std::uint64_t nodes = 0;          // quotient-graph nodes
  std::uint64_t transitions = 0;    // quotient-graph transitions
  std::uint64_t nodes_full = 0;     // exact unreduced node count (Σ orbits)
  double reduction_ratio = 1.0;     // nodes_full / nodes
};

struct SweepRow {
  int n = 0;
  int m = 0;
  std::string object;            // "(n,m)-PAC"
  std::int64_t declared_level = 0;
  std::string level_source;
  // The p = m consensus instance (the port's claimed capacity).
  SweepCheck consensus;
  // True iff the consensus check passed for EVERY p in [1, m].
  bool consensus_ok_all_p = false;
  // The n-process DAC instance over the PAC ports.
  SweepCheck dac;
  // Verdict == declared level: both constructive checks pass and the
  // catalog row declares level m.
  bool matches_catalog = false;

  bool ok() const { return consensus_ok_all_p && dac.ok && matches_catalog; }
};

struct SweepResult {
  int n_min = 0;
  int n_max = 0;
  std::vector<SweepRow> rows;  // (n, m) in lexicographic order

  bool all_ok() const;
};

// Provenance stamped into the full artifact (NOT into the rows document).
struct SweepProvenance {
  std::string tool = "hierarchy_sweep_cli";
  std::string engine;        // engine_name() of the requested engine
  int threads = 0;           // requested worker threads (0 = auto)
  int threads_available = 1; // cores the host actually had
};

// Checks one (n, m) cell. Errors (rather than reporting a failed row) on
// exploration failures and on cross-check verdict disagreement.
StatusOr<SweepRow> run_hierarchy_row(int n, int m,
                                     const SweepOptions& options = {});

// Runs every cell in [n_min, n_max] x [1, n].
StatusOr<SweepResult> run_hierarchy_sweep(const SweepOptions& options = {});

// The deterministic rows document:
//   {"lbsa_hierarchy_schema":1,"n_min":..,"n_max":..,"rows":[...]}
// Byte-identical across engines, thread counts, and cross-check modes.
std::string hierarchy_rows_json(const SweepResult& result);

// The full HIERARCHY.json artifact: the rows document plus a "provenance"
// object. Validated by obs::validate_hierarchy_artifact_json / the
// `report_check hierarchy` mode.
std::string hierarchy_artifact_json(const SweepResult& result,
                                    const SweepProvenance& provenance);

// The consensus-power table as a GitHub-markdown grid (rows n, columns m;
// each verified cell shows its machine-checked level) — the README snippet.
std::string hierarchy_table_markdown(const SweepResult& result);

}  // namespace lbsa::core

#endif  // LBSA_CORE_HIERARCHY_SWEEP_H_
