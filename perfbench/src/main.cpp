// perfbench: one workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   perfbench --list-metrics
//
// The last line of standard output is the JSON result. The exit code
// is 0 whenever a result was printed (its "correct" field carries the
// outcome of the checks), 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct workload {
  const char* name;
  result (*run)(const options&);
};

const workload workloads[] = {
    {"swm_f64", [](const options& o) { return run_swm_step(o, precision::f64); }},
    {"swm_f32", [](const options& o) { return run_swm_step(o, precision::f32); }},
    {"swm_f16", [](const options& o) { return run_swm_step(o, precision::f16); }},
    {"halo_inproc", [](const options& o) { return run_swm_halo(o, transport::inproc); }},
    {"halo_socket", [](const options& o) { return run_swm_halo(o, transport::socket); }},
    {"ensemble", run_ensemble},
    {"ens_probe", run_ensemble_probe},
    {"des_fig3", run_des_fig3},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n       "
               "perfbench --list-metrics\nworkloads:",
               why);
  for (const auto& w : workloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const auto& n : per_layer_names()) std::printf("%s\n", n.c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    double x = 0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || v[0] == '-') return usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_number(v, x) || !(x > 0) || x > 3600) {
        return usage("bad --seconds");
      }
      opt.seconds = x;
      have_seconds = true;
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage("bad --trace");
      }
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  for (const auto& w : workloads) {
    if (opt.workload != w.name) continue;
    const int cpu = pin_to_one_cpu();
    std::printf("pinned to cpu %d\n", cpu);
    result r = w.run(opt);
    report(opt, r);
    return 0;
  }
  return usage(("unknown workload '" + opt.workload + "'").c_str());
}
