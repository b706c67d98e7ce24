/// flat_dense and cell_escalate: one flow call per repetition, from the
/// generated GDSII to a written, MRC-signed-off output GDSII.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "benches.h"
#include "core/flow.h"
#include "layers.h"
#include "layout/gdsii.h"
#include "lint/lint.h"
#include "litho/fft.h"
#include "litho/simulator.h"
#include "litho/socs.h"
#include "mrc/mrc.h"
#include "trace/tracer.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace opc = opckit::opc;
namespace geom = opckit::geom;
namespace layout = opckit::layout;
namespace litho = opckit::litho;
namespace trace = opckit::trace;

namespace {

// Set-up is sampled at least kMinSetups times and until kSetupSeconds
// have passed, at most kMaxSetups times.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

bool is_cell(const std::string& workload) {
  return workload == "cell_escalate";
}

layout::Library make_input(const std::string& workload, std::uint64_t seed) {
  return is_cell(workload) ? make_cell_escalate(seed) : make_flat_dense(seed);
}

opc::FlowSpec make_spec(const std::string& workload, bool calibrate) {
  return is_cell(workload) ? cell_escalate_spec(calibrate)
                           : flat_dense_spec(calibrate);
}

/// The imaging spec the flow hands its tiles (the flat flow widens the
/// guard band to the halo).
litho::SimSpec tile_sim(const opc::FlowSpec& spec, bool cell) {
  litho::SimSpec sim = spec.sim;
  if (!cell) sim.guard_nm = std::max(sim.guard_nm, spec.halo_nm);
  return sim;
}

/// The flow's tiles in the flow's own order. Flat: one per placement of
/// the top cell's SREFs (expanded last-first, as the flow's depth-first
/// stack does), own drawn shapes plus every neighbour shape within the
/// halo. Cell: one per distinct cell with shapes, sorted by name.
std::vector<Tile> flow_tiles(const layout::Library& lib,
                             const opc::FlowSpec& spec, bool cell) {
  std::vector<Tile> tiles;
  const layout::Cell& top = lib.at("top");
  if (cell) {
    std::vector<std::string> names;
    for (const auto& ref : top.refs()) names.push_back(ref.child);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    for (const auto& name : names) {
      const auto shapes = lib.at(name).shapes(spec.input_layer);
      if (shapes.empty()) continue;
      tiles.push_back({{shapes.begin(), shapes.end()},
                       lib.at(name).local_bbox()});
    }
    return tiles;
  }
  std::vector<std::vector<geom::Polygon>> drawn;
  std::vector<geom::Rect> windows;
  const auto& refs = top.refs();
  for (auto it = refs.rbegin(); it != refs.rend(); ++it) {
    std::vector<geom::Polygon> own;
    geom::Rect w = geom::Rect::empty();
    for (const auto& s : lib.at(it->child).shapes(spec.input_layer)) {
      own.push_back(it->transform(s));
      w = w.united(own.back().bbox());
    }
    drawn.push_back(std::move(own));
    windows.push_back(w);
  }
  for (std::size_t i = 0; i < drawn.size(); ++i) {
    Tile t{drawn[i], windows[i]};
    const geom::Rect reach = windows[i].inflated(spec.halo_nm);
    for (std::size_t j = 0; j < drawn.size(); ++j) {
      if (j == i) continue;
      for (const auto& p : drawn[j]) {
        if (reach.touches(p.bbox())) t.targets.push_back(p);
      }
    }
    tiles.push_back(std::move(t));
  }
  return tiles;
}

/// One cold set-up: caches dropped, GDSII read, pre-flight lint,
/// threshold calibration, first touch of the kernel set and FFT plans on
/// the first tile. Ends when the first tile could start solving.
struct Setup {
  double total_s = 0.0;
  double read_ms = 0.0, lint_ms = 0.0, calibrate_ms = 0.0, touch_ms = 0.0;
  std::size_t lint_errors = 0;
  layout::Library lib;
  opc::FlowSpec spec;
};

Setup set_up(const std::string& workload, const std::string& input) {
  Setup s;
  litho::KernelCache::instance().clear();
  litho::PlanCache::instance().clear();
  const bool cell = is_cell(workload);
  const double t0 = wall_now();
  s.lib = layout::read_gdsii_file(input);
  const double t1 = wall_now();
  s.spec = make_spec(workload, false);
  s.lint_errors = opckit::lint::lint_library(s.lib).errors() +
                  opckit::lint::lint_sim_spec(s.spec.sim).errors() +
                  opckit::lint::lint_opc_spec(s.spec.opc).errors();
  const double t2 = wall_now();
  litho::calibrate_threshold(s.spec.sim, 180, 360);
  const double t3 = wall_now();
  const std::vector<Tile> tiles = flow_tiles(s.lib, s.spec, cell);
  if (!tiles.empty()) {
    const litho::Simulator sim(tile_sim(s.spec, cell), tiles.front().window);
    (void)sim.aerial(geom::Region::from_polygons(tiles.front().targets));
  }
  const double t4 = wall_now();
  s.total_s = t4 - t0;
  s.read_ms = 1000.0 * (t1 - t0);
  s.lint_ms = 1000.0 * (t2 - t1);
  s.calibrate_ms = 1000.0 * (t3 - t2);
  s.touch_ms = 1000.0 * (t4 - t3);
  return s;
}

/// Error-severity mask_deck_180 violations of the output layer as read
/// back from the written file.
std::size_t mrc_errors_in(const std::string& path, const opc::FlowSpec& spec) {
  const layout::Library out = layout::read_gdsii_file(path);
  const std::vector<geom::Polygon> mask =
      out.flatten("top", spec.output_layer);
  const auto report = opckit::mrc::check_polygons(mask,
                                                  opckit::mrc::mask_deck_180());
  return opckit::mrc::to_lint_report(report).errors();
}

/// One flow call plus the output write; returns false (and records the
/// failure) when the flow or the write threw.
struct FlowRun {
  bool ok = false;
  double wall_s = 0.0, cpu_s = 0.0;
  opc::FlowStats stats;
};

FlowRun run_once(Record& rec, const layout::Library& base,
                 const opc::FlowSpec& spec, bool cell,
                 const std::string& out_path) {
  FlowRun r;
  layout::Library lib = base;
  const double w0 = wall_now();
  const double c0 = cpu_now();
  try {
    r.stats = cell ? opc::run_cell_opc(lib, "top", spec)
                   : opc::run_flat_opc(lib, "top", spec);
    layout::write_gdsii_file(lib, out_path);
    r.ok = true;
  } catch (const opc::MrcGateError& e) {
    rec.fail(std::string("MRC signoff gate: ") + e.what());
  } catch (const std::exception& e) {
    rec.fail(std::string("flow: ") + e.what());
  }
  r.cpu_s = cpu_now() - c0;
  r.wall_s = wall_now() - w0;
  ++rec.attempted;
  return r;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void put_outcome_info(Record& rec, const opc::FlowStats& st, bool cell) {
  const double tiles = static_cast<double>(st.cache_hits + st.cache_misses +
                                           st.cache_conflicts);
  rec.info["cache_hit_ratio"] = share(static_cast<double>(st.cache_hits), tiles);
  if (cell) {
    rec.info["escalated_share"] =
        share(static_cast<double>(st.ilt_escalated),
              static_cast<double>(st.opc_runs));
    rec.info["ilt_tiles"] = static_cast<double>(st.ilt_tiles);
  }
  rec.info["tiles"] = static_cast<double>(st.tile_simulations.size());
  rec.info["opc_runs"] = static_cast<double>(st.opc_runs);
}

void traced_run(const Args& args, Record& rec, const std::string& input) {
  const bool cell = is_cell(args.workload);
  const trace::MetricsSnapshot s0 = trace::metrics().snapshot();
  Setup s = set_up(args.workload, input);
  const trace::MetricsSnapshot s1 = trace::metrics().snapshot();
  if (s.lint_errors) rec.fail("pre-flight lint found errors");
  const std::string out = args.work_dir + "/out_traced.gds";
  const std::string plain_out = args.work_dir + "/out_plain.gds";

  // Untraced repetitions on either side of the traced one: their mean is
  // the baseline for trace.overhead_frac.
  const FlowRun before = run_once(rec, s.lib, s.spec, cell, plain_out);

  // Traced repetition: the program's own span tracer on, plus a
  // progress hook that samples process CPU at every phase boundary.
  opc::FlowSpec spec = s.spec;
  double solve_cpu = 0.0, mark = 0.0;
  bool in_solve = false;
  spec.progress = [&](const opc::FlowProgress& p) {
    if (p.tiles_done != 0) return;  // per-tile merge events
    const double now = cpu_now();
    if (in_solve) solve_cpu += now - mark;
    in_solve = p.phase == "solve";
    mark = now;
  };
  trace::Tracer::instance().start();
  const FlowRun traced = run_once(rec, s.lib, spec, cell, out);
  trace::Tracer::instance().stop();
  const FlowRun after = run_once(rec, s.lib, s.spec, cell, plain_out);
  const double plain_wall = 0.5 * (before.wall_s + after.wall_s);
  const opc::FlowStats& st = traced.stats;
  const trace::MetricsSnapshot& m = st.metrics;

  // Output checks: tracing leaves the mask byte-identical, and the mask
  // passes mask_deck_180 as read back.
  if (traced.ok && after.ok) {
    rec.attempted += 2;
    if (file_hash(out) != file_hash(plain_out)) {
      rec.fail("traced output differs from the untraced output");
    }
    const std::size_t errors = mrc_errors_in(out, s.spec);
    rec.info["mrc_violations"] = static_cast<double>(errors);
    if (errors) rec.fail("output fails mask_deck_180");
  }

  // GDSII write of the signed-off mask, timed alone.
  const layout::Library written =
      traced.ok ? layout::read_gdsii_file(out) : s.lib;
  const double write0 = wall_now();
  layout::write_gdsii_file(written, out);
  const double write_ms = 1000.0 * (wall_now() - write0);

  const std::vector<Tile> tiles = flow_tiles(s.lib, s.spec, cell);
  const LayerReplay lr = replay_layers(tiles, s.spec, tile_sim(s.spec, cell));

  // Ledger: every solver iteration costs one EPE measurement (simulate
  // + probe) and every solve one fragmentation/update, plus the ILT
  // re-solve of escalated tiles. Flat tile_simulations are pass-major.
  double accounted = 0.0;
  const std::size_t n = tiles.size();
  if (cell) {
    for (std::size_t i = 0; i < n; ++i) {
      accounted += static_cast<double>(lr.model_iterations[i]) *
                       lr.epe_cpu_s[i] +
                   lr.fragment_cpu_s[i] + lr.ilt_cpu_s[i];
    }
  } else {
    for (std::size_t k = 0; k < st.tile_simulations.size() && n; ++k) {
      const std::size_t i = k % n;
      if (st.tile_simulations[k] == 0) continue;  // replayed
      accounted += static_cast<double>(st.tile_simulations[k]) *
                       lr.epe_cpu_s[i] +
                   lr.fragment_cpu_s[i];
    }
  }

  const double threads =
      static_cast<double>(opckit::util::global_pool().size());
  const double solve_ms = gauge(m, trace::metric::kFlowPhaseSolveMs);
  const double escalated = static_cast<double>(
      std::count(lr.escalated.begin(), lr.escalated.end(), true));
  const trace::MetricsSnapshot setup_delta =
      trace::MetricsSnapshot::delta(s0, s1);

  std::map<std::string, double> v = common_layers(lr, m);
  v["litho.calibrate_ms"] = s.calibrate_ms;
  v["litho.kernel_build_ms"] = s.touch_ms;
  v["litho.fft_plan_builds"] +=
      counter(setup_delta, trace::metric::kLithoFftPlanBuilds);
  v["flow.parallel_eff"] = share(solve_cpu, solve_ms / 1000.0 * threads);
  v["ilt.runs"] = counter(m, trace::metric::kIltRuns);
  v["ilt.escalations"] = counter(m, trace::metric::kIltEscalations);
  // Accepted gradient steps over every ILT run, counted exactly by the
  // replay (the registry keeps them only as a 4-wide-binned histogram).
  v["ilt.iterations"] = static_cast<double>(lr.ilt_iterations);
  v["ilt.capped_frac"] =
      share(static_cast<double>(lr.ilt_capped), escalated);
  v["ilt.solve_ms_p50"] = lr.ilt_ms.median();
  v["ilt.solve_ms_max"] = lr.ilt_ms.max();
  v["ilt.legalize_ms"] = lr.legalize_ms.median();
  v["layout.gds_read_ms"] = s.read_ms;
  v["layout.gds_write_ms"] = write_ms;
  v["layout.gds_bytes"] =
      static_cast<double>(traced.ok ? file_size(out) : 0);
  v["lint.preflight_ms"] = s.lint_ms;
  v["trace.accounted_frac"] = share(accounted, solve_cpu);
  v["trace.overhead_frac"] =
      plain_wall > 0.0 ? (traced.wall_s - plain_wall) / plain_wall : 0.0;
  put_layers(rec, v);
  put_outcome_info(rec, st, cell);
  rec.info["solve_cpu_s"] = solve_cpu;
  rec.info["accounted_cpu_s"] = accounted;
  rec.info["threads.flow_pool"] = threads;
  rec.info["threads.budget"] = cpu_budget();
  rec.info["trace.events"] =
      static_cast<double>(trace::Tracer::instance().event_count());
}

}  // namespace

Record run_flow_workload(const Args& args) {
  Record rec;
  rec.workload = args.workload;
  rec.seed = args.seed;
  rec.trace = args.trace;
  const bool cell = is_cell(args.workload);

  const std::string input = args.work_dir + "/input.gds";
  layout::write_gdsii_file(make_input(args.workload, args.seed), input);
  rec.notes["input_hash"] = file_hash(input);
  rec.notes["params"] = describe_params(args.workload);

  if (args.trace) {
    traced_run(args, rec, input);
    return rec;
  }

  // Set-up, repeated cold; the last one leaves the caches warm for the
  // measured repetitions.
  Samples setup;
  Setup s;
  const double setup_start = wall_now();
  while (setup.size() < kMinSetups ||
         (setup.size() < kMaxSetups &&
          wall_now() - setup_start < kSetupSeconds)) {
    s = set_up(args.workload, input);
    setup.add(s.total_s);
  }
  ++rec.attempted;
  if (s.lint_errors) rec.fail("pre-flight lint found errors");

  Samples wall, cpu;
  std::string first_hash;
  std::string first_out;
  opc::FlowStats first_stats;
  const double start = wall_now();
  for (int rep = 0; rep < kMaxReps; ++rep) {
    const std::string out =
        args.work_dir + "/out" + std::to_string(rep) + ".gds";
    const FlowRun r = run_once(rec, s.lib, s.spec, cell, out);
    if (r.ok) {
      wall.add(r.wall_s);
      cpu.add(r.cpu_s);
      const std::string h = file_hash(out);
      if (first_hash.empty()) {
        first_hash = h;
        first_out = out;
        first_stats = r.stats;
      } else {
        ++rec.attempted;
        if (h != first_hash) {
          rec.fail("output hash differs between repeats: " + first_hash +
                   " vs " + h);
        }
        std::filesystem::remove(out);
      }
    }
    // Stop when the next repetition would end past the measuring time.
    const double elapsed = wall_now() - start;
    if (rep + 1 >= kMinReps &&
        elapsed + elapsed / (rep + 1) > args.seconds) {
      break;
    }
  }

  std::size_t mrc_errors = 0;
  if (!first_out.empty()) {
    ++rec.attempted;
    mrc_errors = mrc_errors_in(first_out, s.spec);
    if (mrc_errors) {
      rec.fail("output fails mask_deck_180: " + std::to_string(mrc_errors) +
               " error(s)");
    }
  }

  rec.put("setup_s", "s", setup);
  rec.put("wall_s", "s", wall);
  rec.put("cpu_s", "s", cpu);
  rec.put("peak_rss_mb", "MiB", peak_rss_mb());
  rec.put("max_epe_nm", "nm", first_stats.max_abs_epe_nm);
  rec.put("rms_epe_nm", "nm", first_stats.worst_rms_epe_nm);
  rec.put("mask_bytes", "bytes",
          static_cast<double>(first_out.empty() ? 0 : file_size(first_out)));
  put_outcome_info(rec, first_stats, cell);
  rec.info["mrc_violations"] = static_cast<double>(mrc_errors);
  rec.info["error_rate"] = share(static_cast<double>(rec.failed),
                                 static_cast<double>(rec.attempted));
  rec.info["threads.flow_pool"] =
      static_cast<double>(opckit::util::global_pool().size());
  rec.info["threads.budget"] = cpu_budget();
  rec.notes["output_hash"] = first_hash;
  return rec;
}

}  // namespace perfbench
