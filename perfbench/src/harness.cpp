#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string_view>

namespace perfbench {

namespace {

using clock_type = std::chrono::steady_clock;

// Set during static initialisation, before main(): setup_s counts from
// here, so a cold set-up includes everything the process did first.
const clock_type::time_point process_start = clock_type::now();

constexpr std::size_t max_spans = 1u << 20;

struct metric_spec {
  const char* name;
  const char* unit;
};

// The per-layer metrics, in BENCHMARK.json order. The unit is printed
// with each value; counts are exact, seconds are per call.
const metric_spec layer_specs[] = {
    {"swm.rhs_f64_s", "s"},
    {"swm.rhs_f32_s", "s"},
    {"swm.rhs_f16_s", "s"},
    {"swm.stages_f64_s", "s"},
    {"swm.stages_f32_s", "s"},
    {"swm.stages_f16_s", "s"},
    {"swm.combine_f64_s", "s"},
    {"swm.combine_f32_s", "s"},
    {"swm.combine_f16_s", "s"},
    {"kernels.apply_f64_s", "s"},
    {"kernels.apply_f32_s", "s"},
    {"kernels.apply_f16_s", "s"},
    {"swm.rhs_f64_GBps", "GB/s"},
    {"kernels.triad_GBps", "GB/s"},
    {"swm.halo_exchange_inproc_s", "s"},
    {"swm.halo_exchange_socket_s", "s"},
    {"mpisim.p2p_roundtrip_inproc_s", "s"},
    {"mpisim.p2p_roundtrip_socket_s", "s"},
    {"swm.dist_compute_s", "s"},
    {"swm.halo_messages_per_step", "count"},
    {"swm.halo_bytes_per_step", "B"},
    {"mpisim.vclock_step_s", "s"},
    {"ens.round_s", "s"},
    {"ens.submit_s", "s"},
    {"ens.rounds", "count"},
    {"ens.tile_members", "count"},
    {"kernels.rk4_batched_s", "s"},
    {"ens.probe_submit_s", "s"},
    {"ens.probe_wait_s", "s"},
    {"mpisim.build_s", "s"},
    {"mpisim.simulate_uncontended_s", "s"},
    {"mpisim.simulate_contended_s", "s"},
    {"mpisim.ops", "count"},
    {"mpisim.link_hops", "count"},
    {"mpisim.contended_hops", "count"},
    {"mpisim.sim_allreduce_8KiB_uncontended_s", "s"},
    {"mpisim.sim_allreduce_8KiB_contended_s", "s"},
    {"mpisim.sim_gatherv_8KiB_uncontended_s", "s"},
    {"mpisim.sim_gatherv_8KiB_contended_s", "s"},
    {"trace.rate_ratio", "ratio"},
    {"window.unattributed_share", "ratio"},
};

const char* unit_of(const std::string& name) {
  for (const auto& s : layer_specs) {
    if (name == s.name) return s.unit;
  }
  return "?";
}

// Shortest text that reads back as the same double.
std::string number(double v) {
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(clock_type::now() - process_start)
      .count();
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double fastest_tenth_mean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t k = std::max<std::size_t>(1, samples.size() / 10);
  std::partial_sort(samples.begin(),
                    samples.begin() + static_cast<std::ptrdiff_t>(k),
                    samples.end());
  return std::accumulate(samples.begin(),
                         samples.begin() + static_cast<std::ptrdiff_t>(k),
                         0.0) /
         static_cast<double>(k);
}

int span_log::open(const char* name, int parent) {
  if (spans_.size() >= max_spans) return -1;
  const double t = now_s();
  spans_.push_back({name, t, t, parent});
  return static_cast<int>(spans_.size() - 1);
}

void span_log::close(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = now_s();
}

double span_log::total(const char* name) const {
  double s = 0;
  for (const auto& sp : spans_) {
    if (std::string_view(sp.name) == name) s += sp.t1 - sp.t0;
  }
  return s;
}

std::uint64_t span_log::count(const char* name) const {
  std::uint64_t n = 0;
  for (const auto& sp : spans_) {
    if (std::string_view(sp.name) == name) ++n;
  }
  return n;
}

bool span_log::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_s\tend_s\tparent\n");
  for (const auto& sp : spans_) {
    std::fprintf(f, "%s\t%.9f\t%.9f\t%d\n", sp.name, sp.t0, sp.t1, sp.parent);
  }
  return std::fclose(f) == 0;
}

bool result::correct() const {
  if (checks.empty()) return false;
  return std::all_of(checks.begin(), checks.end(),
                     [](const check& c) { return c.passed; });
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& s : layer_specs) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

void report(const options& opt, result& r) {
  std::printf("workload %s  seed %llu  %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  for (const auto& c : r.checks) {
    std::printf("check %-44s %s  %s\n", c.name.c_str(),
                c.passed ? "ok  " : "FAIL", c.detail.c_str());
  }
  std::printf("operations attempted %llu, failed %llu (one operation: %s)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.op_name.c_str());

  std::string metrics;
  auto add = [&metrics](const std::string& name, double v, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(v) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (!opt.trace) {
    std::printf("setup_s      %.6f s\n", r.setup_s);
    std::printf("peak_rss_MiB %.2f MiB\n", r.peak_rss);
    std::printf("throughput   %.6g ops/s\n", r.throughput);
    add("setup_s", r.setup_s, "s");
    add("peak_rss_MiB", r.peak_rss, "MiB");
    add("throughput", r.throughput, "ops/s");
  } else {
    double attributed = 0;
    std::printf("\n%-34s %12s %8s %10s\n", "layer (traced window)", "total_s",
                "share", "calls");
    for (const auto& row : r.table) {
      attributed += row.total_s;
      std::printf("%-34s %12.6f %7.1f%% %10llu\n", row.name.c_str(),
                  row.total_s,
                  r.window_s > 0 ? 100.0 * row.total_s / r.window_s : 0.0,
                  static_cast<unsigned long long>(row.calls));
    }
    const double unattributed = std::max(0.0, r.window_s - attributed);
    std::printf("%-34s %12.6f %7.1f%%\n", "unattributed", unattributed,
                r.window_s > 0 ? 100.0 * unattributed / r.window_s : 0.0);
    std::printf("%-34s %12.6f\n", "window", r.window_s);
    r.layers["window.unattributed_share"] =
        r.window_s > 0 ? unattributed / r.window_s : 0.0;
    r.layers["trace.rate_ratio"] = r.untraced_throughput > 0
                                       ? r.throughput / r.untraced_throughput
                                       : 0.0;
    std::printf("traced rate %.6g ops/s against untraced %.6g ops/s\n\n",
                r.throughput, r.untraced_throughput);
    for (const auto& name : per_layer_names()) {
      const auto it = r.layers.find(name);
      const double v = it == r.layers.end() ? 0.0 : it->second;
      std::printf("%-40s %.6g %s\n", name.c_str(), v, unit_of(name));
      add(name, v, unit_of(name));
    }
    if (!opt.spans_path.empty()) {
      if (r.spans.write(opt.spans_path)) {
        std::printf("spans: %zu written to %s\n", r.spans.spans().size(),
                    opt.spans_path.c_str());
      } else {
        std::printf("spans: could not write %s\n", opt.spans_path.c_str());
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
