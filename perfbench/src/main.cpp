// ccvc_perfbench — the measuring half of the repository benchmark.
//
//   ccvc_perfbench --workload NAME --kind replay|live --seed N --seconds S
//                  [--trace-out FILE] [--perturb] [--egress-spin-ns N]
//                  [--param key=value ...]
//
// perfbench/run.py passes every workload parameter from
// perfbench/spec.json as a --param.  The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "values"}; a run
// that aborts prints none and exits 1.  With
// --trace-out the run is the traced one: it records spans (trace.hpp)
// into FILE and its values are per-layer inputs for summarize.py;
// without, its values are the end-to-end metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "ccvc_perfbench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& kind) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") opt.workload = value();
    else if (arg == "--kind") kind = value();
    else if (arg == "--seed") opt.seed = std::stoull(value());
    else if (arg == "--seconds") opt.seconds = std::stod(value());
    else if (arg == "--trace-out") opt.trace_out = value();
    else if (arg == "--perturb") opt.perturb = true;
    else if (arg == "--egress-spin-ns") opt.egress_spin_ns = std::stoll(value());
    else if (arg == "--param") {
      const std::string kv = value();
      const auto eq = kv.find('=');
      if (eq == std::string::npos) usage("--param wants key=value");
      opt.params[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  opt.trace = !opt.trace_out.empty();
  if (kind != "replay" && kind != "live") usage("--kind must be replay or live");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

void print(const perfbench::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"values\": {";
  bool first = true;
  for (const auto& [name, v] : r.values) {
    char num[64];
    if (std::isfinite(v)) std::snprintf(num, sizeof num, "%.17g", v);
    else std::snprintf(num, sizeof num, "null");
    out += (first ? "\"" : ", \"") + name + "\": " + num;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string kind;
  const Options opt = parse(argc, argv, kind);
  try {
    const perfbench::Result r =
        kind == "replay" ? perfbench::run_replay(opt) : perfbench::run_live(opt);
    if (opt.trace) perfbench::trace::write(opt.trace_out);
    print(r);
    return 0;
  } catch (const std::exception& e) {
    // run.py counts every operation of an aborted run as failed.
    std::fprintf(stderr, "ccvc_perfbench: run aborted: %s\n", e.what());
    return 1;
  }
}
