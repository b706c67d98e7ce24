#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/strings.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int cpu_budget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double Samples::quantile(double p) const {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const double pos = p * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + frac * (s[hi] - s[lo]);
}

double Samples::spread() const {
  const double m = median();
  return m != 0.0 ? (quantile(0.75) - quantile(0.25)) / std::abs(m) : 0.0;
}

double Samples::max() const {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

void Record::put(const std::string& name, const std::string& unit,
                 const Samples& s) {
  metrics[name] = Metric{s.median(), unit, s.spread(), s.size()};
}

void Record::put(const std::string& name, const std::string& unit,
                 double value) {
  metrics[name] = Metric{value, unit, 0.0, 1};
}

void Record::fail(const std::string& what) {
  ++failed;
  check_failures.push_back(what);
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(" \t"));
    return v;
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double x) {
  if (!std::isfinite(x)) return "0";
  return opckit::util::format_double(x);
}

}  // namespace

std::map<std::string, std::string> machine_context(const Args& args) {
  std::map<std::string, std::string> ctx;
  ctx["cpu_count"] = std::to_string(cpu_budget());
  ctx["cpu_model"] = cpuinfo_field("model name");
  ctx["cpu_mhz"] = cpuinfo_field("cpu MHz");
  ctx["compiler"] = PERFBENCH_COMPILER;
  ctx["build_type"] = PERFBENCH_BUILD_TYPE;
  ctx["source_hash"] = args.source_id.empty() ? "unknown" : args.source_id;
  ctx["loadavg_start"] = read_first_line("/proc/loadavg");
  return ctx;
}

std::string render_record_json(const Record& rec, const Args& args) {
  std::ostringstream os;
  os << "{\"record\":{\"workload\":\"" << rec.workload << "\",\"seed\":"
     << rec.seed << ",\"trace\":" << (rec.trace ? 1 : 0) << ",\"context\":{";
  bool first = true;
  for (const auto& [k, v] : machine_context(args)) {
    os << (first ? "" : ",") << "\"" << k << "\":\"" << json_escape(v) << "\"";
    first = false;
  }
  os << "},\"metrics\":{";
  first = true;
  for (const auto& [name, m] : rec.metrics) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"median\":"
       << num(m.value) << ",\"unit\":\"" << m.unit << "\",\"spread\":"
       << num(m.spread) << ",\"n\":" << m.samples << "}";
    first = false;
  }
  os << "},\"info\":{";
  first = true;
  for (const auto& [name, v] : rec.info) {
    os << (first ? "" : ",") << "\"" << name << "\":" << num(v);
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [name, v] : rec.notes) {
    os << (first ? "" : ",") << "\"" << name << "\":\"" << json_escape(v)
       << "\"";
    first = false;
  }
  os << "},\"checks_failed\":[";
  first = true;
  for (const auto& f : rec.check_failures) {
    os << (first ? "" : ",") << "\"" << json_escape(f) << "\"";
    first = false;
  }
  os << "]}}";
  return os.str();
}

std::string render_result_line(const Record& rec) {
  std::ostringstream os;
  os << "{\"correct\":" << (rec.correct() ? "true" : "false")
     << ",\"attempted\":" << std::max<std::size_t>(1, rec.attempted)
     << ",\"failed\":" << rec.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : rec.metrics) {
    os << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
       << num(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

}  // namespace

std::string text_hash(const std::string& text) {
  return hex(fnv1a(kFnvOffset, text.data(), text.size()));
}

std::string file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = kFnvOffset;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof buf);
    h = fnv1a(h, buf, static_cast<std::size_t>(in.gcount()));
  }
  return hex(h);
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

}  // namespace perfbench
