/// \file layers.h
/// Per-layer timing from outside the program: the traced run replays a
/// workload's own tile windows through each module's public functions
/// (rasterize, aerial image, resist blur, fragmentation, EPE probing,
/// region build, model OPC, pixel ILT, legalization, MRC) and times
/// every call from benchmark code. Nothing inside src/ is instrumented.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/flow.h"
#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "trace/metrics.h"

namespace perfbench {

/// One correction tile as the flow sees it: own targets plus context,
/// and the window whose geometry is corrected.
struct Tile {
  std::vector<opckit::geom::Polygon> targets;
  opckit::geom::Rect window;
};

/// Measurements of one replay over a workload's tiles. Time samples are
/// per tile (wall ms); CPU figures are per tile (process CPU seconds,
/// every thread), the ledger that trace.accounted_frac sums.
struct LayerReplay {
  Samples region_ms, fragment_ms, raster_ms, aerial_ms, blur_ms, epe_ms;
  Samples model_opc_ms, mrc_ms, ilt_ms, legalize_ms;
  std::vector<double> epe_cpu_s, fragment_cpu_s, ilt_cpu_s;
  std::vector<std::size_t> model_iterations;  ///< per tile
  std::vector<bool> escalated;                ///< per tile (kEscalate)
  std::size_t ilt_capped = 0;
  std::size_t ilt_iterations = 0;  ///< accepted descent steps, all runs
  double rows_attempted = 0.0;
  double rows_pruned = 0.0;
};

/// Replay \p tiles with the flow's solver settings (\p sim is the
/// effective imaging spec the flow gives its tiles), one call at a time
/// on one worker of the global pool.
LayerReplay replay_layers(const std::vector<Tile>& tiles,
                          const opckit::opc::FlowSpec& spec,
                          const opckit::litho::SimSpec& sim);

/// The per-layer values every workload derives alike: per-call medians
/// from the replay \p lr, and counts from the run's registry delta \p m.
std::map<std::string, double> common_layers(
    const LayerReplay& lr, const opckit::trace::MetricsSnapshot& m);

}  // namespace perfbench
