/// daemon_reuse: an in-process opcd with a durable library directory,
/// driven over its unix socket by a closed-loop load generator (a fixed
/// set of client connections, each submitting its next job when the
/// previous result arrives). A fill lifetime first solves the shared
/// standard cells into a durable library (fsync'd .ocs appends and .ocl
/// inserts). Each measured round is then one daemon lifetime over a
/// fresh copy of that library: it loads the shelves on first touch,
/// replays most tiles exactly, warm-starts the ECO-edited cells from
/// near matches and appends them. Latency is taken only from
/// client-side timestamps (never from the daemon's binned
/// svc.job_latency_ms histogram).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benches.h"
#include "core/flow.h"
#include "geometry/region.h"
#include "layers.h"
#include "layout/gdsii.h"
#include "lint/lint.h"
#include "litho/fft.h"
#include "litho/simulator.h"
#include "litho/socs.h"
#include "mrc/mrc.h"
#include "pattern/library.h"
#include "service/client.h"
#include "service/server.h"
#include "service/socket.h"
#include "store/result_store.h"
#include "trace/tracer.h"
#include "workloads.h"

namespace perfbench {

namespace opc = opckit::opc;
namespace geom = opckit::geom;
namespace layout = opckit::layout;
namespace litho = opckit::litho;
namespace svc = opckit::svc;
namespace trace = opckit::trace;

namespace {

constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 200;
constexpr int kTracedRound = 2;
constexpr std::size_t kMinJobs = 100;  // p90 needs >= 10 samples above it
constexpr int kPings = 20;
constexpr int kMinSetups = 5;

/// Client-side timeline of one job.
struct JobTiming {
  int job = 0;
  bool ok = false;
  double submit = 0.0, first_progress = 0.0, result = 0.0;
  double max_epe = 0.0, rms_epe = 0.0;
  std::string out_path;
  std::string error;
};

/// First number after "key": in a stats JSON payload (0 when absent).
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// A started daemon over its own library directory, with the client's
/// calibrated job spec and a connected probe client.
struct Daemon {
  std::string dir, sock;
  opc::FlowSpec spec;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::Client> probe;
  double setup_s = 0.0;
  double calibrate_ms = 0.0;
};

/// Set-up: the client calibrates its job spec, then the daemon starts
/// (over a copy of \p library when given) and answers the first ping —
/// the point where a first tile could solve. Timed from the first call
/// to the ping reply.
Daemon start_daemon(const std::string& work, const std::string& tag,
                    int workers, int clients,
                    const std::string& library = "") {
  Daemon d;
  d.dir = work + "/lib" + tag;
  d.sock = work + "/d" + tag + ".sock";
  std::filesystem::remove_all(d.dir);
  if (library.empty()) {
    std::filesystem::create_directories(d.dir);
  } else {
    std::filesystem::copy(library, d.dir);
  }
  std::filesystem::remove(d.sock);
  const double t0 = wall_now();
  d.spec = daemon_reuse_spec(false);
  litho::calibrate_threshold(d.spec.sim, 180, 360);
  const double t1 = wall_now();
  svc::ServerOptions opts;
  opts.unix_path = d.sock;
  opts.workers = workers;
  opts.max_queue = static_cast<std::size_t>(clients) * 2;
  opts.library.dir = d.dir;
  opts.library.sync_on_append = true;
  d.server = std::make_unique<svc::Server>(std::move(opts));
  d.server->start();
  d.probe = std::make_unique<svc::Client>(svc::connect_unix(d.sock));
  d.probe->ping();
  d.setup_s = wall_now() - t0;
  d.calibrate_ms = 1000.0 * (t1 - t0);
  return d;
}

void stop_daemon(Daemon& d) {
  d.probe.reset();
  d.server->stop();
  std::filesystem::remove(d.sock);
  std::filesystem::remove_all(d.dir);
}

/// One daemon lifetime: start, answer pings, serve the job stream, stop.
struct Round {
  double setup_s = 0.0;
  double calibrate_ms = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Samples ping_ms;
  std::vector<JobTiming> jobs;
  trace::MetricsSnapshot delta;
  std::uint64_t fingerprint = 0;
  std::string dir, ocs_path, ocl_path;
};

Round run_round(const std::string& work, const std::string& tag,
                const std::vector<std::string>& chips, int workers,
                int clients, const std::string& library) {
  Round r;
  Daemon daemon = start_daemon(work, tag, workers, clients, library);
  const opc::FlowSpec& spec = daemon.spec;
  const std::string& sock = daemon.sock;
  r.setup_s = daemon.setup_s;
  r.calibrate_ms = daemon.calibrate_ms;
  r.dir = daemon.dir;
  for (int i = 0; i < kPings; ++i) {
    const double a = wall_now();
    daemon.probe->ping();
    r.ping_ms.add(1000.0 * (wall_now() - a));
  }
  // The shelf key the daemon derives for these jobs (it clears the
  // per-job store and library paths before fingerprinting).
  r.fingerprint = opc::flow_fingerprint(spec, "flat");
  r.ocs_path = daemon.server->library().path_for(r.fingerprint);
  r.ocl_path = daemon.server->library().pattern_path_for(r.fingerprint);

  // Closed loop: every client submits its next job as soon as its
  // previous result is in.
  const int n_jobs = static_cast<int>(chips.size());
  r.jobs.resize(static_cast<std::size_t>(n_jobs));
  std::atomic<int> next{0};
  const trace::MetricsSnapshot before = trace::metrics().snapshot();
  std::vector<std::unique_ptr<svc::Client>> conns;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<svc::Client>(svc::connect_unix(sock)));
  }
  const double w0 = wall_now();
  const double c0 = cpu_now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      svc::Client& client = *conns[static_cast<std::size_t>(c)];
      for (int j = next.fetch_add(1); j < n_jobs; j = next.fetch_add(1)) {
        JobTiming& jt = r.jobs[static_cast<std::size_t>(j)];
        jt.job = j;
        jt.out_path = work + "/out_" + tag + "_j" + std::to_string(j) + ".gds";
        svc::SubmitMsg msg;
        msg.flow = 0;
        msg.in_path = chips[static_cast<std::size_t>(j)];
        msg.out_path = jt.out_path;
        msg.top = "top";
        msg.spec = spec;
        const auto on_progress = [&](const svc::ProgressMsg&) {
          if (jt.first_progress == 0.0) jt.first_progress = wall_now();
        };
        jt.submit = wall_now();
        try {
          const svc::Client::Outcome out = client.run_job(msg, on_progress);
          jt.result = wall_now();
          jt.ok = out.accepted && out.result.ok;
          if (jt.ok) {
            jt.max_epe = json_number(out.result.payload, "max_abs_epe_nm");
            jt.rms_epe = json_number(out.result.payload, "worst_rms_epe_nm");
          } else {
            jt.error = out.accepted ? out.result.payload : out.rejected.message;
          }
        } catch (const std::exception& e) {
          jt.result = wall_now();
          jt.error = e.what();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double last = w0;
  for (const JobTiming& jt : r.jobs) last = std::max(last, jt.result);
  r.cpu_s = cpu_now() - c0;
  r.wall_s = last - w0;
  r.delta = trace::MetricsSnapshot::delta(before, trace::metrics().snapshot());
  daemon.probe.reset();
  daemon.server->stop();
  std::filesystem::remove(sock);
  return r;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Benchmark-side calls into the store and pattern-library APIs over
/// the durable files a round left behind — what a restarted daemon
/// reads — plus fsync'd appends into a scratch store.
struct ReuseFiles {
  double records_loaded = 0.0;
  double library_load_ms = 0.0;
  Samples near_query_ms;
  Samples append_ms;
};

ReuseFiles measure_reuse_files(const Round& r, double budget,
                               const std::string& scratch) {
  ReuseFiles f;
  const opckit::store::LoadResult loaded =
      opckit::store::ResultStore::load(r.ocs_path, r.fingerprint);
  f.records_loaded = static_cast<double>(loaded.records.size());

  const double t = wall_now();
  const opckit::pat::PatternLibrary lib =
      opckit::pat::PatternLibrary::open(r.ocl_path, r.fingerprint);
  f.library_load_ms = 1000.0 * (wall_now() - t);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const double a = wall_now();
    (void)lib.nearest(lib.feature(i), budget);
    f.near_query_ms.add(1000.0 * (wall_now() - a));
  }

  opckit::store::ResultStore out =
      opckit::store::ResultStore::create(scratch, r.fingerprint, true);
  for (const auto& rec : loaded.records) {
    const double a = wall_now();
    out.append(rec);
    f.append_ms.add(1000.0 * (wall_now() - a));
  }
  return f;
}

/// The std-cell tiles of a chip (placements are isolated: no context).
std::vector<Tile> chip_tiles(const layout::Library& lib,
                             const opc::FlowSpec& spec) {
  std::vector<Tile> tiles;
  for (const auto& ref : lib.at("top").refs()) {
    Tile t;
    t.window = geom::Rect::empty();
    for (const auto& s : lib.at(ref.child).shapes(spec.input_layer)) {
      t.targets.push_back(ref.transform(s));
      t.window = t.window.united(t.targets.back().bbox());
    }
    tiles.push_back(std::move(t));
  }
  return tiles;
}

}  // namespace

Record run_daemon_workload(const Args& args) {
  const DaemonReuseParams& p = kDaemonReuse;
  Record rec;
  rec.workload = args.workload;
  rec.seed = args.seed;
  rec.trace = args.trace;
  rec.notes["params"] = describe_params(args.workload);

  std::vector<std::string> chips;
  std::string input_hashes;
  for (int j = 0; j < p.jobs_per_round; ++j) {
    const std::string path =
        args.work_dir + "/chip" + std::to_string(j) + ".gds";
    layout::write_gdsii_file(make_daemon_chip(args.seed, j), path);
    input_hashes += file_hash(path);
    chips.push_back(path);
  }
  rec.notes["input_hash"] = text_hash(input_hashes);

  // Thread and connection budget: as many daemon workers as
  // load-generator connections, never more than the CPUs this process
  // may use; jobs run their flows inline on the daemon workers (jobs = 1).
  const int budget = cpu_budget();
  const int workers = std::min(p.connections, budget);
  const int clients = workers;
  rec.info["threads.budget"] = budget;
  rec.info["threads.daemon_workers"] = workers;
  rec.info["connections.clients"] = clients;

  // In-process anchor: chip 0 through the same flow, no daemon.
  const opc::FlowSpec spec = daemon_reuse_spec(true);
  const std::string anchor = args.work_dir + "/anchor.gds";
  std::string anchor_hash;
  ++rec.attempted;
  try {
    layout::Library lib = layout::read_gdsii_file(chips[0]);
    opc::run_flat_opc(lib, "top", spec);
    layout::write_gdsii_file(lib, anchor);
    anchor_hash = file_hash(anchor);
  } catch (const std::exception& e) {
    rec.fail(std::string("in-process anchor flow: ") + e.what());
  }

  // Set-up samples: daemon lifetimes that only start and answer a ping
  // (each round below adds one more).
  Samples setup;
  for (int i = 0; i < kMinSetups; ++i) {
    Daemon d = start_daemon(args.work_dir, "s" + std::to_string(i), workers,
                            clients);
    setup.add(d.setup_s);
    stop_daemon(d);
  }

  Samples wall, cpu, job_ms;
  double max_epe = 0.0, rms_epe = 0.0;
  std::string job0_hash;
  std::map<std::string, double> reuse;  // registry counters, all rounds
  // Every job's outcome, and the output checks on job 0: identical to
  // the in-process run, identical across rounds, and clean under
  // mask_deck_180 as read back. Latency samples come from measured
  // rounds only.
  const auto account = [&](const Round& r, bool measured) {
    for (const JobTiming& jt : r.jobs) {
      ++rec.attempted;
      if (!jt.ok) {
        rec.fail("job " + std::to_string(jt.job) + ": " + jt.error);
        continue;
      }
      if (measured) job_ms.add(1000.0 * (jt.result - jt.submit));
      max_epe = std::max(max_epe, jt.max_epe);
      rms_epe = std::max(rms_epe, jt.rms_epe);
    }
    const JobTiming& j0 = r.jobs.front();
    if (!j0.ok) return;
    const std::string h = file_hash(j0.out_path);
    rec.attempted += 2;
    if (h != anchor_hash) {
      rec.fail("daemon job 0 output differs from the in-process run");
    }
    if (job0_hash.empty()) {
      job0_hash = h;
      rec.put("mask_bytes", "bytes",
              static_cast<double>(file_size(j0.out_path)));
      const layout::Library out = layout::read_gdsii_file(j0.out_path);
      const auto report = opckit::mrc::check_polygons(
          out.flatten("top", spec.output_layer), spec.mrc_deck);
      const std::size_t errors = opckit::mrc::to_lint_report(report).errors();
      rec.info["mrc_violations"] = static_cast<double>(errors);
      if (errors) rec.fail("job 0 output fails mask_deck_180");
    } else if (h != job0_hash) {
      rec.fail("job 0 output hash differs between rounds");
    }
    for (const JobTiming& jt : r.jobs) std::filesystem::remove(jt.out_path);
  };

  // Fill: one daemon lifetime solves chip 0 (every standard cell once)
  // into the durable library that each measured round starts from.
  Round fill = run_round(args.work_dir, "fill", {chips[0]}, workers, clients,
                         "");
  const std::string library = args.work_dir + "/library";
  std::filesystem::rename(fill.dir, library);
  account(fill, false);
  rec.info["fill_ms"] = 1000.0 * fill.wall_s;

  // Untraced: rounds until the time is up (and enough jobs for p90).
  // Traced: kTracedRound with the span tracer on, between untraced rounds
  // whose median wall time is the baseline for trace.overhead_frac.
  std::vector<Round> rounds;
  ReuseFiles files;
  const double start = wall_now();
  const int max_rounds = args.trace ? 2 * kTracedRound + 1 : kMaxRounds;
  for (int i = 0; i < max_rounds; ++i) {
    const bool traced = args.trace && i == kTracedRound;
    if (traced) trace::Tracer::instance().start();
    Round r = run_round(args.work_dir, std::to_string(i), chips, workers,
                        clients, library);
    if (traced) trace::Tracer::instance().stop();
    setup.add(r.setup_s);
    wall.add(r.wall_s);
    cpu.add(r.cpu_s);
    account(r, true);
    for (const char* name :
         {trace::metric::kCacheHits, trace::metric::kCacheMisses,
          trace::metric::kCacheConflicts, trace::metric::kPatLibraryNearHits}) {
      reuse[name] += counter(r.delta, name);
    }
    if (traced) {
      files = measure_reuse_files(r, spec.library_budget,
                                  args.work_dir + "/append.ocs");
    }
    std::filesystem::remove_all(r.dir);
    rounds.push_back(std::move(r));
    // Stop when the next round would end past the measuring time.
    const double elapsed = wall_now() - start;
    if (!args.trace && i + 1 >= kMinRounds && job_ms.size() >= kMinJobs &&
        elapsed + elapsed / (i + 1) > args.seconds) {
      break;
    }
  }
  const double tiles = reuse[trace::metric::kCacheHits] +
                       reuse[trace::metric::kCacheMisses] +
                       reuse[trace::metric::kCacheConflicts];
  const double near = reuse[trace::metric::kPatLibraryNearHits];
  rec.info["tiles"] = tiles;
  rec.info["exact_share"] = share(reuse[trace::metric::kCacheHits], tiles);
  rec.info["near_share"] = share(near, tiles);
  rec.info["cold_share"] = share(tiles - reuse[trace::metric::kCacheHits] -
                                     near,
                                 tiles);
  rec.info["error_rate"] = share(static_cast<double>(rec.failed),
                                 static_cast<double>(rec.attempted));
  rec.info["rounds"] = static_cast<double>(rounds.size());
  rec.notes["output_hash"] = job0_hash;

  if (!args.trace) {
    rec.put("setup_s", "s", setup);
    rec.put("wall_s", "s", wall);
    rec.put("cpu_s", "s", cpu);
    rec.put("peak_rss_mb", "MiB", peak_rss_mb());
    rec.info["job_p50_ms"] = job_ms.median();
    rec.info["job_p90_ms"] = job_ms.quantile(0.9);
    rec.info["job_samples"] = static_cast<double>(job_ms.size());
    rec.put("max_epe_nm", "nm", max_epe);
    rec.put("rms_epe_nm", "nm", rms_epe);
    return rec;
  }
  rec.metrics.clear();

  Samples plain;
  for (int i = 0; i < static_cast<int>(rounds.size()); ++i) {
    if (i != kTracedRound) plain.add(rounds[static_cast<std::size_t>(i)].wall_s);
  }
  const double plain_wall = plain.median();
  const Round& tr = rounds.at(static_cast<std::size_t>(kTracedRound));
  const trace::MetricsSnapshot& d = tr.delta;

  // Layer calls on the shared standard cells (chip 0's tiles), and the
  // GDSII / lint calls every job makes on its input.
  layout::Library chip0;
  double t = wall_now();
  chip0 = layout::read_gdsii_file(chips[0]);
  const double read_ms = 1000.0 * (wall_now() - t);
  t = wall_now();
  const std::size_t lint_errors =
      opckit::lint::lint_library(chip0).errors() +
      opckit::lint::lint_sim_spec(spec.sim).errors() +
      opckit::lint::lint_opc_spec(spec.opc).errors();
  const double lint_ms = 1000.0 * (wall_now() - t);
  if (lint_errors) rec.fail("pre-flight lint found errors");
  t = wall_now();
  layout::write_gdsii_file(chip0, args.work_dir + "/rewrite.gds");
  const double write_ms = 1000.0 * (wall_now() - t);
  const std::vector<Tile> tiles0 = chip_tiles(chip0, spec);
  // First touch of the imaging set-up (FFT plans) on a cold cache.
  litho::KernelCache::instance().clear();
  litho::PlanCache::instance().clear();
  t = wall_now();
  {
    const litho::Simulator sim(spec.sim, tiles0.front().window);
    (void)sim.aerial(geom::Region::from_polygons(tiles0.front().targets));
  }
  const double touch_ms = 1000.0 * (wall_now() - t);
  const LayerReplay lr = replay_layers(tiles0, spec, spec.sim);

  Samples q, run;
  for (const JobTiming& jt : tr.jobs) {
    if (!jt.ok || jt.first_progress == 0.0) continue;
    q.add(1000.0 * (jt.first_progress - jt.submit));
    run.add(1000.0 * (jt.result - jt.first_progress));
  }
  const double sims = counter(d, trace::metric::kFlowSimulations);
  const double opc_runs = counter(d, trace::metric::kFlowOpcRuns);
  // Ledger: fresh solves' iterations at the median per-iteration cost
  // of the std-cell tiles, over the whole round's process CPU (the
  // daemon's solve phases are not observable from outside).
  const double accounted = sims * Samples{lr.epe_cpu_s}.median() +
                           opc_runs * Samples{lr.fragment_cpu_s}.median();

  std::map<std::string, double> v = common_layers(lr, d);
  v["litho.calibrate_ms"] = tr.calibrate_ms;
  v["litho.kernel_build_ms"] = touch_ms;
  v["flow.parallel_eff"] = share(tr.cpu_s, tr.wall_s * workers);
  v["layout.gds_read_ms"] = read_ms;
  v["layout.gds_write_ms"] = write_ms;
  v["layout.gds_bytes"] =
      static_cast<double>(file_size(args.work_dir + "/anchor.gds"));
  v["lint.preflight_ms"] = lint_ms;
  v["pat.library_load_ms"] = files.library_load_ms;
  v["pat.near_query_ms"] = files.near_query_ms.median();
  v["pat.library_exact_hits"] =
      counter(d, trace::metric::kPatLibraryExactHits);
  v["pat.library_near_hits"] = counter(d, trace::metric::kPatLibraryNearHits);
  v["pat.library_warm_iterations"] =
      counter(d, trace::metric::kPatLibraryWarmIterations);
  v["store.records_loaded"] = files.records_loaded;
  v["store.records_appended"] =
      counter(d, trace::metric::kStoreRecordsAppended);
  v["store.append_ms"] = files.append_ms.median();
  v["svc.ping_rtt_ms"] = tr.ping_ms.median();
  v["svc.queue_wait_ms_p50"] = q.median();
  v["svc.queue_wait_ms_p90"] = q.quantile(0.9);
  v["svc.run_ms_p50"] = run.median();
  v["svc.jobs_rejected"] = counter(d, trace::metric::kSvcJobsRejected);
  v["svc.protocol_errors"] = counter(d, trace::metric::kSvcProtocolErrors);
  v["svc.cache_hit_ratio"] =
      share(counter(d, trace::metric::kSvcCacheHits),
            counter(d, trace::metric::kSvcCacheLookups));
  v["trace.accounted_frac"] = share(accounted, tr.cpu_s);
  v["trace.overhead_frac"] =
      plain_wall > 0.0 ? (tr.wall_s - plain_wall) / plain_wall : 0.0;
  put_layers(rec, v);
  rec.info["queue_wait_samples"] = static_cast<double>(q.size());
  return rec;
}

}  // namespace perfbench
