// perfbench: runs one benchmark workload and prints its report as one JSON
// line on stdout.
//
//   perfbench --workload serve_chat|serve_longctx|train_moda --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// runs the workload untraced and then traced, and reports per-layer
// metrics from the traced pass, plus the layer probes. The script
// run.py builds this binary and turns the report into the benchmark's
// result line.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/cpu.hpp"

extern char** environ;

namespace pb {

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void wait_until_s(double t) {
  // Sleeps, then spins for the last 2 ms: a sleeping thread wakes late and
  // on a cold core, and that noise would land in every request's latency.
  const double spin_s = 2e-3;
  const double left = t - now_s();
  if (left > spin_s)
    std::this_thread::sleep_for(std::chrono::duration<double>(left - spin_s));
  while (now_s() < t) {
  }
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

Args parse(int argc, char** argv) {
  Args a;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      seen_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--trace-out") {
      a.trace_path = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!seen_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0))
    throw std::invalid_argument("--seconds must be in (0, 600]");
  return a;
}

/// BGL_* variables change the library's defaults (overlap, compression,
/// thread count, serving knobs, transport); the benchmark measures the
/// defaults only.
void refuse_bgl_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BGL_", 4) == 0) {
      const std::string var(*e);
      throw std::invalid_argument(
          "refusing to run with " + var.substr(0, var.find('=')) +
          " set: the benchmark measures the library's defaults");
    }
  }
}

void print(const Args& args, const Report& r) {
  std::ostringstream out;
  out << "{\"workload\":" << json_string(args.workload)
      << ",\"seed\":" << args.seed << ",\"seconds\":" << fmt(args.seconds)
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"correct\":" << (r.correct ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"metrics\":[";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? "," : "") << "{\"name\":" << json_string(m.name)
        << ",\"value\":" << fmt(m.value) << ",\"unit\":" << json_string(m.unit)
        << ",\"samples\":" << m.samples << "}";
  }
  out << "],\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    out << (i ? "," : "") << json_string(r.failures[i]);
  out << "],\"facts\":{";
  for (std::size_t i = 0; i < r.facts.size(); ++i)
    out << (i ? "," : "") << json_string(r.facts[i].first) << ":"
        << json_string(r.facts[i].second);
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    pb::refuse_bgl_environment();
    const pb::Args args = pb::parse(argc, argv);
    pb::Report report;
    report.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.fact("simd",
                bgl::core::simd_level_name(bgl::core::simd_level()));
    report.fact("seed", std::to_string(args.seed));
    if (args.workload == "serve_chat" || args.workload == "serve_longctx") {
      pb::run_serve(args, report);
    } else if (args.workload == "train_moda") {
      pb::run_train(args, report);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    if (args.trace) pb::run_probes(args.seed, report);
    pb::print(args, report);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
