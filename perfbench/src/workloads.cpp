#include "workloads.h"

#include <sstream>

#include "layout/generators.h"
#include "layout/layer.h"
#include "litho/simulator.h"
#include "mrc/mrc.h"
#include "util/rng.h"

namespace perfbench {

using opckit::geom::Coord;
using opckit::geom::Point;
using opckit::geom::Rect;
namespace layout = opckit::layout;
namespace layers = opckit::layout::layers;
namespace litho = opckit::litho;
namespace opc = opckit::opc;

namespace {

/// Independent, reproducible stream per (seed, purpose, index).
opckit::util::Rng stream(std::uint64_t seed, std::uint64_t purpose,
                         std::uint64_t index = 0) {
  return opckit::util::Rng(seed * 0x9e3779b97f4a7c15ULL +
                           purpose * 0xbf58476d1ce4e5b9ULL + index);
}

Coord pick(opckit::util::Rng& rng, Coord lo, Coord hi) {
  return static_cast<Coord>(rng.uniform_int(lo, hi));
}

layout::CellRef place(const std::string& child, Coord x, Coord y) {
  layout::CellRef ref;
  ref.child = child;
  ref.transform = opckit::geom::Transform(Point{x, y});
  return ref;
}

/// Base flow settings shared by every workload: poly in, poly-OPC out,
/// a calibrated 248 nm / NA 0.68 annular process on \p grid source
/// points, the mask_deck_180 signoff gate on.
opc::FlowSpec base_spec(int grid, bool calibrate) {
  opc::FlowSpec spec;
  spec.sim.optics.source.grid = grid;
  spec.input_layer = layers::kPoly;
  spec.output_layer = layers::kPolyOpc;
  spec.mrc_deck = opckit::mrc::mask_deck_180();
  spec.mrc_action = opckit::mrc::Action::kFail;
  // An 8 nm mask grid keeps every correction jog at or above the deck's
  // 8 nm minimum edge. The default tolerance lies below what that grid
  // can resolve, so every solve runs max_iterations: the work per tile
  // does not depend on the seed (cell_escalate overrides this).
  spec.opc.grid_nm = 8;
  spec.opc.epe_tolerance_nm = 0.5;
  if (calibrate) litho::calibrate_threshold(spec.sim, 180, 360);
  return spec;
}

}  // namespace

// ---- flat_dense ---------------------------------------------------------

layout::Library make_flat_dense(std::uint64_t seed) {
  const auto& p = kFlatDense;
  layout::Library lib("flat_dense");
  layout::Cell& top = lib.cell("top");
  const Coord pitch = p.block_nm + p.gap_nm;
  for (int r = 0; r < p.rows; ++r) {
    for (int c = 0; c < p.cols; ++c) {
      const int i = r * p.cols + c;
      const std::string name = "blk" + std::to_string(i);
      opckit::util::Rng rng = stream(seed, 1, static_cast<std::uint64_t>(i));
      layout::RandomBlockSpec spec;
      spec.width = p.block_nm;
      spec.height = p.block_nm;
      spec.wire_space = 280;
      spec.min_segment = 600;
      spec.max_segment = 1800;
      spec.jog_probability = 0.0;
      layout::add_random_block(lib.cell(name), layers::kPoly, spec, rng);
      top.add_ref(place(name, c * pitch, r * pitch));
    }
  }
  return lib;
}

opc::FlowSpec flat_dense_spec(bool calibrate) {
  const auto& p = kFlatDense;
  opc::FlowSpec spec = base_spec(p.source_grid, false);
  spec.sim.imaging = litho::ImagingMode::kSocs;
  spec.sim.socs_epsilon = p.socs_epsilon;
  spec.opc.max_iterations = p.max_iterations;
  spec.flat_context_passes = 2;
  spec.engine = opc::CorrectionEngine::kModel;
  spec.jobs = 0;  // the global pool: Abbe/SOCS loops nest inline in it
  if (calibrate) litho::calibrate_threshold(spec.sim, 180, 360);
  return spec;
}

// ---- cell_escalate ------------------------------------------------------

namespace {

/// Cell boundary layer: each cell carries its boundary 80 nm outside its
/// drawn shapes, so the cell flow's tile window leaves ILT free pixels
/// around the targets.
constexpr layout::Layer kBoundary{100, 0};
constexpr Coord kBoundaryMarginNm = 80;

/// Tip-to-tip: two line ends facing across a seeded gap beside one
/// parallel neighbour at a seeded pitch.
void add_tip_to_tip(layout::Cell& cell, opckit::util::Rng& rng) {
  const Coord gap = pick(rng, 200, 230) / 2;
  const Coord pitch = pick(rng, 300, 330);
  const Coord len = pick(rng, 300, 340);
  cell.add_rect(layers::kPoly, Rect(-90, -len, 90, -gap));
  cell.add_rect(layers::kPoly, Rect(-90, gap, 90, len));
  cell.add_rect(layers::kPoly, Rect(pitch - 90, -len, pitch + 90, len));
}

/// Dense 2 x 2 contact array with seeded size and pitch.
void add_contacts(layout::Cell& cell, opckit::util::Rng& rng) {
  const Coord size = pick(rng, 200, 240);
  const Coord pitch = pick(rng, 400, 440);
  opckit::layout::add_contact_array(cell, layers::kPoly, size, pitch, 2, 2);
}

/// Forbidden-pitch line pair: 180 nm lines at a seeded semi-dense pitch.
void add_forbidden_pitch(layout::Cell& cell, opckit::util::Rng& rng) {
  const Coord pitch = pick(rng, 520, 620);
  const Coord len = pick(rng, 600, 680);
  for (int i = 0; i < 2; ++i) {
    const Coord cy = i * pitch;
    cell.add_rect(layers::kPoly, Rect(0, cy, len, cy + 180));
  }
}

/// Easy cell: two relaxed lines of seeded width, pitch and length.
void add_easy(layout::Cell& cell, opckit::util::Rng& rng) {
  const Coord w = pick(rng, 220, 260);
  const Coord pitch = pick(rng, 380, 420);
  const Coord len = pick(rng, 560, 680);
  cell.add_rect(layers::kPoly, Rect(0, 0, w, len));
  cell.add_rect(layers::kPoly, Rect(pitch, 0, pitch + w, len));
}

}  // namespace

layout::Library make_cell_escalate(std::uint64_t seed) {
  const auto& p = kCellEscalate;
  layout::Library lib("cell_escalate");
  layout::Cell& top = lib.cell("top");
  // Hard cells sit at every fourth position of the (name-sorted) cell
  // order — tip-to-tip and contact arrays alternating — plus a
  // forbidden-pitch pair at every sixteenth; the rest are easy.
  for (int i = 0; i < p.cells; ++i) {
    opckit::util::Rng rng = stream(seed, 2, static_cast<std::uint64_t>(i));
    const char* kind = i % 4 == 0    ? (i / 4 % 2 == 0 ? "tip" : "contacts")
                       : i % 16 == 6 ? "forbidden"
                                     : "easy";
    const std::string name = (i < 10 ? "c0" : "c") + std::to_string(i) +
                             "_" + kind;
    layout::Cell& cell = lib.cell(name);
    switch (kind[0]) {
      case 't': add_tip_to_tip(cell, rng); break;
      case 'c': add_contacts(cell, rng); break;
      case 'f': add_forbidden_pitch(cell, rng); break;
      default: add_easy(cell, rng); break;
    }
    cell.add_rect(kBoundary,
                  cell.local_bbox().inflated(kBoundaryMarginNm));
    top.add_ref(place(name, static_cast<Coord>(i % 4) * 6000,
                      static_cast<Coord>(i / 4) * 6000));
  }
  return lib;
}

opc::FlowSpec cell_escalate_spec(bool calibrate) {
  const auto& p = kCellEscalate;
  opc::FlowSpec spec = base_spec(p.source_grid, false);
  // With their boundary margin, cells fit in 848 x 848 nm (forbidden-
  // pitch pairs: 848 x 1872), so with a 600 nm guard band every tile
  // images on a 256 x 256 pixel frame (256 x 512): the frame, and with
  // it the cost of a solve, does not depend on the seed.
  spec.sim.guard_nm = 600;
  spec.sim.imaging = litho::ImagingMode::kSocs;
  spec.sim.socs_epsilon = p.socs_epsilon;
  spec.engine = opc::CorrectionEngine::kEscalate;
  // Escalation needs convergence: a tile converges once its worst EPE
  // is within one mask-grid step; the rest re-solve through ILT.
  spec.opc.epe_tolerance_nm = p.escalation_epe_nm;
  spec.ilt_escalation_epe_nm = p.escalation_epe_nm;
  spec.ilt.max_iterations = p.ilt_max_iterations;
  spec.jobs = 0;
  if (calibrate) litho::calibrate_threshold(spec.sim, 180, 360);
  return spec;
}

// ---- daemon_reuse -------------------------------------------------------

namespace {

/// Standard cell \p i of the shared set: two bars whose width, gap and
/// height grow with i (a fixed library, the same for every seed), the
/// second bar's right edge moved by \p eco_nm for an ECO edit.
void add_std_cell(layout::Cell& cell, int i, Coord eco_nm) {
  const Coord w = 180 + 20 * i;
  const Coord gap = 300 + 80 * i;
  const Coord h = 1000 + 80 * i;
  cell.add_rect(layers::kPoly, Rect(0, 0, w, h));
  cell.add_rect(layers::kPoly, Rect(w + gap, 0, 2 * w + gap + eco_nm, h));
}

}  // namespace

layout::Library make_daemon_chip(std::uint64_t seed, int j) {
  const auto& p = kDaemonReuse;
  opckit::util::Rng rng = stream(seed, 5, static_cast<std::uint64_t>(j));
  layout::Library lib("chip" + std::to_string(j));
  layout::Cell& top = lib.cell("top");
  // Job eco_every / 2 of every eco_every carries a single-cell ECO: one
  // placement (seeded slot) uses an edited copy of its cell, one bar
  // edge moved a few nm — an exact miss that is feature-near the
  // unedited cell. The k-th ECO edits cell k mod 6 by 2 + (k / 6) mod 7
  // nm, so every round carries the same edits whatever the seed.
  const bool eco = j % p.eco_every == p.eco_every / 2;
  const int k = j / p.eco_every;
  const int eco_slot =
      eco ? static_cast<int>(rng.uniform_int(0, p.placements - 1)) : -1;
  const Coord eco_nm = 2 + k / p.std_cells % 7;
  // Job 0 places every standard cell once: the job that fills the
  // durable library the measured rounds start from.
  const int placements = j == 0 ? p.std_cells : p.placements;
  for (int s = 0; s < placements; ++s) {
    const int c =
        j == 0      ? s
        : s == eco_slot ? k % p.std_cells
                        : static_cast<int>(rng.uniform_int(0, p.std_cells - 1));
    std::string name = "std" + std::to_string(c);
    if (s == eco_slot) {
      name += "_eco";
      add_std_cell(lib.cell(name), c, eco_nm);
    } else if (!lib.has_cell(name)) {
      add_std_cell(lib.cell(name), c, 0);
    }
    // Placements sit well beyond the halo, so per-job jitter moves
    // cells without changing any tile's optical neighbourhood.
    const Coord jx = pick(rng, 0, 400);
    const Coord jy = pick(rng, 0, 400);
    top.add_ref(place(name, s * 5000 + jx, jy));
  }
  return lib;
}

opc::FlowSpec daemon_reuse_spec(bool calibrate) {
  const auto& p = kDaemonReuse;
  opc::FlowSpec spec = base_spec(p.source_grid, false);
  spec.opc.max_iterations = p.max_iterations;
  // Solves stop once within one mask-grid step, so a warm start from a
  // near match saves iterations.
  spec.opc.epe_tolerance_nm = 8.0;
  spec.library_budget = p.library_budget;
  spec.jobs = 1;  // daemon concurrency comes from its workers
  if (calibrate) litho::calibrate_threshold(spec.sim, 180, 360);
  return spec;
}

std::string describe_params(const std::string& workload) {
  std::ostringstream os;
  if (workload == "flat_dense") {
    const auto& p = kFlatDense;
    os << "placements=" << p.cols << "x" << p.rows
       << " block_nm=" << p.block_nm << " gap_nm=" << p.gap_nm
       << " source_grid=" << p.source_grid << " imaging=socs eps="
       << p.socs_epsilon << " max_iterations=" << p.max_iterations
       << " passes=2 engine=model mrc=mask_deck_180 jobs=0"
       << " grid_nm=8 epe_tolerance_nm=0.5";
  } else if (workload == "cell_escalate") {
    const auto& p = kCellEscalate;
    os << "cells=" << p.cells << " hard=tip|contacts@i%4==0"
       << " forbidden@i%16==6"
       << " boundary_margin_nm=" << kBoundaryMarginNm
       << " source_grid=" << p.source_grid
       << " imaging=socs eps=" << p.socs_epsilon << " guard_nm=600"
       << " escalation_epe_nm=" << p.escalation_epe_nm
       << " ilt_max_iterations=" << p.ilt_max_iterations
       << " engine=escalate mrc=mask_deck_180 jobs=0"
       << " grid_nm=8 epe_tolerance_nm=" << p.escalation_epe_nm;
  } else {
    const auto& p = kDaemonReuse;
    os << "std_cells=" << p.std_cells << " placements=" << p.placements
       << " jobs_per_round=" << p.jobs_per_round
       << " eco_every=" << p.eco_every
       << " source_grid=" << p.source_grid
       << " library_budget=" << p.library_budget
       << " max_iterations=" << p.max_iterations
       << " mrc=mask_deck_180 flow=flat jobs=1 grid_nm=8"
       << " epe_tolerance_nm=8 connections=" << p.connections;
  }
  return os.str();
}

}  // namespace perfbench
