#include "layers.h"

#include <cmath>
#include <exception>
#include <future>

#include "benches.h"
#include "core/fragment.h"
#include "core/model.h"
#include "geometry/region.h"
#include "ilt/ilt.h"
#include "litho/raster.h"
#include "litho/resist.h"
#include "litho/simulator.h"
#include "mrc/mrc.h"
#include "trace/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace opc = opckit::opc;
namespace geom = opckit::geom;
namespace litho = opckit::litho;
namespace trace = opckit::trace;

namespace {

/// Times one call: wall milliseconds into \p ms, process CPU seconds
/// returned.
template <typename F>
double timed(Samples& ms, F&& fn) {
  const double w0 = wall_now();
  const double c0 = cpu_now();
  fn();
  const double c1 = cpu_now();
  ms.add(1000.0 * (wall_now() - w0));
  return c1 - c0;
}

std::uint64_t live_counter(const char* name) {
  return trace::metrics().counter(name).value();
}

LayerReplay replay_inline(const std::vector<Tile>& tiles,
                          const opc::FlowSpec& spec,
                          const litho::SimSpec& sim) {
  LayerReplay out;
  const bool escalate = spec.engine == opc::CorrectionEngine::kEscalate;
  for (const Tile& tile : tiles) {
    geom::Region region;
    timed(out.region_ms,
          [&] { region = geom::Region::from_polygons(tile.targets); });

    // Fragmentation plus one fragment update (the solver's per-iteration
    // edge move), on the merged targets the solver starts from.
    std::vector<geom::Polygon> merged;
    std::vector<opc::Fragment> frags;
    out.fragment_cpu_s.push_back(timed(out.fragment_ms, [&] {
      merged = opc::merge_targets(tile.targets);
      frags = opc::fragment_polygons(merged, spec.opc.fragmentation);
      std::vector<opc::Fragment> moved = frags;
      for (auto& f : moved) f.offset = spec.opc.grid_nm;
      (void)opc::apply_offsets(merged, moved);
    }));

    const litho::Simulator simulator(sim, tile.window);
    timed(out.raster_ms,
          [&] { (void)litho::rasterize(region, simulator.frame()); });
    const std::uint64_t b0 =
        live_counter(trace::metric::kLithoFftBatchedTransforms);
    const std::uint64_t p0 = live_counter(trace::metric::kLithoFftRowsPruned);
    litho::Image aerial;
    timed(out.aerial_ms, [&] { aerial = simulator.aerial(region); });
    out.rows_attempted +=
        static_cast<double>(
            live_counter(trace::metric::kLithoFftBatchedTransforms) - b0) *
        static_cast<double>(simulator.frame().ny);
    out.rows_pruned +=
        static_cast<double>(live_counter(trace::metric::kLithoFftRowsPruned) -
                            p0);
    timed(out.blur_ms,
          [&] { (void)litho::latent_image(aerial, sim.resist); });

    // One EPE measurement: simulate the drawn mask and probe every
    // fragment — the cost of one solver iteration.
    out.epe_cpu_s.push_back(timed(out.epe_ms, [&] {
      (void)opc::measure_fragment_epe(merged, frags, merged, sim, tile.window,
                                      spec.opc.probe_range_nm);
    }));

    opc::ModelOpcResult model;
    timed(out.model_opc_ms, [&] {
      model = opc::run_model_opc(tile.targets, sim, tile.window, spec.opc);
    });
    out.model_iterations.push_back(model.history.size());
    timed(out.mrc_ms,
          [&] { (void)opckit::mrc::check_polygons(model.corrected,
                                                   spec.mrc_deck); });

    const bool hard =
        escalate && (!model.converged ||
                     (!model.history.empty() &&
                      model.final_iteration().max_abs_epe_nm >
                          spec.ilt_escalation_epe_nm));
    out.escalated.push_back(hard);
    if (!hard) {
      out.ilt_cpu_s.push_back(0.0);
      continue;
    }
    opckit::ilt::IltResult ilt;
    out.ilt_cpu_s.push_back(timed(out.ilt_ms, [&] {
      ilt = opckit::ilt::run_pixel_ilt(tile.targets, sim, tile.window,
                                        spec.ilt);
    }));
    if (!ilt.converged) ++out.ilt_capped;
    out.ilt_iterations += static_cast<std::size_t>(ilt.iterations);
    timed(out.legalize_ms, [&] {
      (void)opckit::ilt::legalize_mask(ilt.mask, tile.window, spec.ilt);
    });
  }
  return out;
}

}  // namespace

LayerReplay replay_layers(const std::vector<Tile>& tiles,
                          const opc::FlowSpec& spec,
                          const litho::SimSpec& sim) {
  // Run on a global-pool worker: the imaging loops inside then run
  // inline, exactly as they do in the flows' tile workers, so each
  // call's time and CPU is what one tile pays there.
  std::promise<LayerReplay> done;
  opckit::util::global_pool().submit([&] {
    try {
      done.set_value(replay_inline(tiles, spec, sim));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  return done.get_future().get();
}

double counter(const trace::MetricsSnapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double gauge(const trace::MetricsSnapshot& s, const char* name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

std::map<std::string, double> common_layers(const LayerReplay& lr,
                                            const trace::MetricsSnapshot& m) {
  namespace metric = trace::metric;
  const double opc_runs = counter(m, metric::kFlowOpcRuns);
  const double sims = counter(m, metric::kFlowSimulations);
  const double hits = counter(m, metric::kCacheHits);
  const double lookups = hits + counter(m, metric::kCacheMisses) +
                         counter(m, metric::kCacheConflicts);
  std::map<std::string, double> v;
  v["litho.fft_plan_builds"] = counter(m, metric::kLithoFftPlanBuilds);
  v["litho.raster_ms"] = lr.raster_ms.median();
  v["litho.raster_cells"] = counter(m, metric::kLithoRasterCells);
  v["litho.aerial_ms"] = lr.aerial_ms.median();
  v["litho.aerial_images"] = counter(m, metric::kLithoAerialImages);
  v["litho.resist_blur_ms"] = lr.blur_ms.median();
  v["litho.fft_r2c_transforms"] = counter(m, metric::kLithoFftR2cTransforms);
  v["litho.fft_c2r_transforms"] = counter(m, metric::kLithoFftC2rTransforms);
  v["litho.fft_batched_transforms"] =
      counter(m, metric::kLithoFftBatchedTransforms);
  v["litho.rows_kept_frac"] =
      lr.rows_attempted > 0.0 ? 1.0 - lr.rows_pruned / lr.rows_attempted : 1.0;
  v["core.fragment_ms"] = lr.fragment_ms.median();
  v["core.epe_probe_ms"] = lr.epe_ms.median();
  v["core.model_opc_ms_p50"] = lr.model_opc_ms.median();
  v["core.model_opc_ms_max"] = lr.model_opc_ms.max();
  v["flow.opc_runs"] = opc_runs;
  v["flow.simulations"] = sims;
  v["flow.iters_per_solve"] = opc_runs > 0.0 ? sims / opc_runs : 0.0;
  v["flow.phase.gather_ms"] = gauge(m, metric::kFlowPhaseGatherMs);
  v["flow.phase.resolve_ms"] = gauge(m, metric::kFlowPhaseResolveMs);
  v["flow.phase.solve_ms"] = gauge(m, metric::kFlowPhaseSolveMs);
  v["flow.phase.merge_ms"] = gauge(m, metric::kFlowPhaseMergeMs);
  v["flow.phase.mrc_ms"] = gauge(m, metric::kFlowPhaseMrcMs);
  v["cache.hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  v["mrc.check_ms"] = lr.mrc_ms.median();
  v["geometry.region_build_ms"] = lr.region_ms.median();
  return v;
}

const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = {
      {"litho.calibrate_ms", "ms"},
      {"litho.kernel_build_ms", "ms"},
      {"litho.fft_plan_builds", "count"},
      {"litho.raster_ms", "ms"},
      {"litho.raster_cells", "count"},
      {"litho.aerial_ms", "ms"},
      {"litho.aerial_images", "count"},
      {"litho.resist_blur_ms", "ms"},
      {"litho.fft_r2c_transforms", "count"},
      {"litho.fft_c2r_transforms", "count"},
      {"litho.fft_batched_transforms", "count"},
      {"litho.rows_kept_frac", "ratio"},
      {"core.fragment_ms", "ms"},
      {"core.epe_probe_ms", "ms"},
      {"core.model_opc_ms_p50", "ms"},
      {"core.model_opc_ms_max", "ms"},
      {"flow.opc_runs", "count"},
      {"flow.simulations", "count"},
      {"flow.iters_per_solve", "count"},
      {"flow.phase.gather_ms", "ms"},
      {"flow.phase.resolve_ms", "ms"},
      {"flow.phase.solve_ms", "ms"},
      {"flow.phase.merge_ms", "ms"},
      {"flow.phase.mrc_ms", "ms"},
      {"flow.parallel_eff", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"ilt.runs", "count"},
      {"ilt.escalations", "count"},
      {"ilt.iterations", "count"},
      {"ilt.capped_frac", "ratio"},
      {"ilt.solve_ms_p50", "ms"},
      {"ilt.solve_ms_max", "ms"},
      {"ilt.legalize_ms", "ms"},
      {"mrc.check_ms", "ms"},
      {"geometry.region_build_ms", "ms"},
      {"layout.gds_read_ms", "ms"},
      {"layout.gds_write_ms", "ms"},
      {"layout.gds_bytes", "bytes"},
      {"lint.preflight_ms", "ms"},
      {"pat.library_load_ms", "ms"},
      {"pat.near_query_ms", "ms"},
      {"pat.library_exact_hits", "count"},
      {"pat.library_near_hits", "count"},
      {"pat.library_warm_iterations", "count"},
      {"store.records_loaded", "count"},
      {"store.records_appended", "count"},
      {"store.append_ms", "ms"},
      {"svc.ping_rtt_ms", "ms"},
      {"svc.queue_wait_ms_p50", "ms"},
      {"svc.queue_wait_ms_p90", "ms"},
      {"svc.run_ms_p50", "ms"},
      {"svc.jobs_rejected", "count"},
      {"svc.protocol_errors", "count"},
      {"svc.cache_hit_ratio", "ratio"},
      {"trace.accounted_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return units;
}

void put_layers(Record& rec, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : per_layer_units()) {
    const auto it = values.find(name);
    rec.put(name, unit, it == values.end() ? 0.0 : it->second);
  }
  for (const auto& [name, v] : values) {
    if (!per_layer_units().count(name)) rec.info[name] = v;
  }
}

}  // namespace perfbench
