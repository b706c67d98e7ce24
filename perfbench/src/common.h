/// \file common.h
/// Shared plumbing of the perfbench binary: clocks, sample statistics,
/// the per-run result record and its JSON rendering, machine context.
///
/// Every workload fills one Record. End-to-end metrics are sample sets
/// (one sample per repetition inside the run) reported as their median
/// with quartile spread and sample count; per-layer metrics are plain
/// values from the traced run. The last stdout line is the result line
/// {"correct","attempted","failed","metrics"}.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for generated files
  std::string source_id; ///< content hash of the benchmarked sources
};

/// Monotonic wall clock in seconds.
double wall_now();
/// CPU time (user + sys, all threads) of this process in seconds.
double cpu_now();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();
/// Online CPUs this process may use (the thread/connection budget).
int cpu_budget();

/// A set of samples of one quantity.
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  std::size_t size() const { return v.size(); }
  /// Quantile with linear interpolation between order statistics
  /// (p in [0, 1]); 0 for an empty set.
  double quantile(double p) const;
  double median() const { return quantile(0.5); }
  /// (q3 - q1) / median: the spread the run reports beside each median.
  double spread() const;
  double max() const;
};

/// One named metric of a run.
struct Metric {
  double value = 0.0;
  std::string unit;
  double spread = 0.0;    ///< IQR over median of the samples behind value
  std::size_t samples = 1;
};

/// Everything one run produced.
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> check_failures;  ///< human-readable, one each
  std::map<std::string, Metric> metrics;    ///< the result line's metrics
  std::map<std::string, double> info;       ///< shares, counts, budgets
  std::map<std::string, std::string> notes; ///< hashes, parameters

  /// Add a metric from a sample set: its median, spread and count.
  void put(const std::string& name, const std::string& unit,
           const Samples& s);
  /// Add a single-valued metric.
  void put(const std::string& name, const std::string& unit, double value);
  /// Record one failed check (counts in `failed` and in error_rate).
  void fail(const std::string& what);
  bool correct() const { return failed == 0; }
};

/// Machine context stamped on every result: CPU count and model, clock,
/// compiler, build type, source hash, load average at start.
std::map<std::string, std::string> machine_context(const Args& args);

/// Full record as one JSON object (context, metrics with spreads, info).
std::string render_record_json(const Record& rec, const Args& args);
/// The result line: correct, attempted, failed and each metric's value.
std::string render_result_line(const Record& rec);

/// FNV-1a 64-bit hash of a string, as 16 hex digits.
std::string text_hash(const std::string& text);
/// FNV-1a 64-bit hash of a file's bytes, as 16 hex digits.
std::string file_hash(const std::string& path);
/// Size of a file in bytes.
std::uint64_t file_size(const std::string& path);

}  // namespace perfbench
