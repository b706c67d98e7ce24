/// \file workloads.h
/// Seeded input generators and flow settings of the three workloads.
///
/// Every generator is a pure function of the seed: the same seed writes
/// byte-identical GDSII. The program under test receives only those
/// files (the flows read them back, the daemon gets their paths).
#pragma once

#include <cstdint>
#include <string>

#include "core/flow.h"
#include "layout/library.h"

namespace perfbench {

/// flat_dense: distinct pseudo-random routed blocks on a grid whose gaps
/// are below the flow's 800 nm halo, so every tile sees its neighbours.
struct FlatDenseParams {
  int cols = 2;
  int rows = 2;
  opckit::geom::Coord block_nm = 2400;  ///< block side
  opckit::geom::Coord gap_nm = 400;     ///< < halo: neighbours couple
  int source_grid = 21;                 ///< dense annular source
  double socs_epsilon = 1e-3;
  int max_iterations = 4;
};
inline constexpr FlatDenseParams kFlatDense{};
opckit::layout::Library make_flat_dense(std::uint64_t seed);
opckit::opc::FlowSpec flat_dense_spec(bool calibrate = true);

/// cell_escalate: a hierarchical library of distinct cells — seeded
/// variants of the hard families (tip-to-tip gaps, contact arrays,
/// forbidden-pitch line pairs) mixed with easy relaxed line pairs —
/// corrected once each with engine = escalate.
struct CellEscalateParams {
  int cells = 32;  ///< 8 tip-to-tip/contact, 2 forbidden pitch, 22 easy
  int source_grid = 5;
  double socs_epsilon = 1e-3;
  double escalation_epe_nm = 8.0;
  int ilt_max_iterations = 12;
};
inline constexpr CellEscalateParams kCellEscalate{};
opckit::layout::Library make_cell_escalate(std::uint64_t seed);
opckit::opc::FlowSpec cell_escalate_spec(bool calibrate = true);

/// daemon_reuse: a family of chips built from one fixed shared
/// standard-cell set, one chip per job. Job 0 places every cell; the
/// others place a seeded selection with per-job jitter, and one job in
/// eco_every carries a single-cell ECO edit.
struct DaemonReuseParams {
  int std_cells = 6;          ///< shared standard-cell set
  int placements = 4;         ///< cells per chip
  int jobs_per_round = 1000;  ///< submissions (and chips) per daemon lifetime
  int eco_every = 100;        ///< one ECO job per this many
  int connections = 4;       ///< daemon workers = client connections
  int source_grid = 5;       ///< light optics
  double library_budget = 0.35;
  int max_iterations = 8;
};
inline constexpr DaemonReuseParams kDaemonReuse{};
/// The chip of job \p j of the family for \p seed.
opckit::layout::Library make_daemon_chip(std::uint64_t seed, int j);
opckit::opc::FlowSpec daemon_reuse_spec(bool calibrate = true);

/// One-line record of the generator parameters (stamped on results).
std::string describe_params(const std::string& workload);

}  // namespace perfbench
