// swm_f64 / swm_f32 / swm_f16: the serial swm::model step.
//
// f64 and f32 run at 1024x512 (36 MiB of prognostic state at f64, far
// above a core's L2: the memory-bound regime of the paper's Fig. 5);
// compensated, scaled Float16 runs at 128x64 because binary16 is
// emulated in software on the host and is ~40x slower per cell.

#include <unistd.h>

#include <cstdio>
#include <vector>

#include "checks.hpp"
#include "fp/float16.hpp"
#include "fp/scaling.hpp"
#include "fp/sherlog.hpp"
#include "kernels/stream.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tfx;
using namespace tfx::swm;

constexpr double velocity_amplitude = 0.5;

struct swm_case {
  const char* tag;  ///< f64 / f32 / f16
  int nx;
  int ny;
  integration_scheme scheme;
  int warm_steps;           ///< untimed; the agreement check's state
  double mass_bound_step;   ///< relative mass drift allowed per step
  double min_correlation;   ///< against Float64 after warm_steps
  double max_rel_rmse;
};

// Bounds, each about 30x the worst value measured over seeds 1-10.
// Periodic flux-form continuity conserves sum(eta) exactly in exact
// arithmetic, so the drift is rounding only: at most 3e-20 relative per
// step at f64, 1e-11 at f32 and 7.5e-7 for compensated Float16 (whose
// increments are rounded to binary16 before the Kahan sum). After the
// warm-up steps, f32 reached rel RMSE 1.3e-7 against Float64 from the
// same seed, Float16 1.4e-3 with correlation 0.999999.
constexpr swm_case case_f64{"f64", 1024, 512, integration_scheme::standard,
                            4, 1e-18, 0, 0};
constexpr swm_case case_f32{"f32", 1024, 512, integration_scheme::standard,
                            4, 3e-10, 0.9999999, 3e-6};
constexpr swm_case case_f16{"f16", 128, 64, integration_scheme::compensated,
                            8, 2e-5, 0.99999, 3e-2};

std::size_t last_level_cache_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{32} << 20;
}

/// Measured triad bandwidth (GB/s, BabelStream accounting: 3 arrays
/// of 8-byte elements per element) with each array 4x the last-level
/// cache; the fastest of five passes.
double triad_gbps(std::size_t& array_bytes, std::size_t& llc_bytes) {
  llc_bytes = last_level_cache_bytes();
  const std::size_t n = 4 * llc_bytes / sizeof(double);
  array_bytes = n * sizeof(double);
  std::vector<double> a(n), b(n, 1.0), c(n, 2.0);
  const auto t = call_times(5, 0.0, [&] {
    kernels::stream_triad<double>(0.5, b, c, a);
  });
  if (a[n / 2] != 2.0) return 0;  // b + 0.5 * c
  return 3.0 * static_cast<double>(array_bytes) / fastest_tenth_mean(t) / 1e9;
}

template <typename T>
result run_case(const options& opt, const swm_case& c) {
  result r;
  r.op_name = std::string("one RK4 step of a ") + std::to_string(c.nx) + "x" +
              std::to_string(c.ny) + " " + c.tag +
              " model; throughput in Mcell-steps/s";
  swm_params p;
  p.nx = c.nx;
  p.ny = c.ny;
  if (c.scheme == integration_scheme::compensated) {
    p.log2_scale = float16_scale(c.nx, c.ny, opt.seed);
  }
  model<T> m(p, c.scheme);
  m.seed_random_eddies(opt.seed, velocity_amplitude);
  r.setup_s = now_s();
  m.run(c.warm_steps);

  const double mcells = static_cast<double>(c.nx) * c.ny / 1e6;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto windows = timed_windows(untraced_s, 1, [&] { m.step(); });
  r.attempted = windows.size();
  r.throughput = mcells / fastest_tenth_mean(windows);
  r.peak_rss = peak_rss_mib();

  if (opt.trace) {
    const std::string tag = c.tag;
    std::vector<double> stage_t, apply_t, step_t;
    const double w0 = now_s();
    const double end = w0 + opt.seconds / 2;
    span_log& log = r.spans;
    do {
      const int step = log.open("swm.step");
      const double t0 = now_s();
      const int st = log.open("swm.stages", step);
      m.step_stages();
      log.close(st);
      const double t1 = now_s();
      const int ap = log.open("kernels.apply", step);
      m.step_apply();
      log.close(ap);
      const double t2 = now_s();
      m.finish_step();
      log.close(step);
      stage_t.push_back(t1 - t0);
      apply_t.push_back(t2 - t1);
      step_t.push_back(now_s() - t0);
    } while (now_s() < end);
    r.window_s = now_s() - w0;
    r.attempted += step_t.size();
    r.untraced_throughput = r.throughput;
    r.throughput = mcells / fastest_tenth_mean(step_t);
    r.table = {{"swm.stages (4 RHS + combine)", log.total("swm.stages"),
                log.count("swm.stages")},
               {"kernels.apply", log.total("kernels.apply"),
                log.count("kernels.apply")}};

    // One rhs_evaluator call on the current state, outside the window.
    rhs_evaluator<T> rhs(p);
    tendencies<T> k(c.nx, c.ny);
    const auto rhs_t = call_times(10, 0.5, [&] {
      const int id = log.open("swm.rhs");
      rhs(m.prognostic(), k);
      log.close(id);
    });
    const double rhs_s = fastest_tenth_mean(rhs_t);
    const double stages_s = fastest_tenth_mean(stage_t);
    r.layers["swm.rhs_" + tag + "_s"] = rhs_s;
    r.layers["swm.stages_" + tag + "_s"] = stages_s;
    r.layers["swm.combine_" + tag + "_s"] = stages_s - 4 * rhs_s;
    r.layers["kernels.apply_" + tag + "_s"] = fastest_tenth_mean(apply_t);
    if (tag == "f64") {
      const step_cost cost =
          predict_step(arch::fugaku_node, c.nx, c.ny, config_float64());
      const double rhs_bytes =
          static_cast<double>(cost.bytes_moved - cost.update_bytes) / 4.0;
      std::size_t array_bytes = 0, llc_bytes = 0;
      const int id = log.open("kernels.triad");
      const double triad = triad_gbps(array_bytes, llc_bytes);
      log.close(id);
      r.layers["swm.rhs_f64_GBps"] = rhs_bytes / rhs_s / 1e9;
      r.layers["kernels.triad_GBps"] = triad;
      std::printf(
          "roofline: RHS %.2f GB/s (computed: %.0f perfmodel bytes per "
          "call) against triad %.2f GB/s (measured, 3 arrays of %.0f MiB; "
          "last-level cache %.0f MiB)\n",
          rhs_bytes / rhs_s / 1e9, rhs_bytes, triad,
          static_cast<double>(array_bytes) / (1 << 20),
          static_cast<double>(llc_bytes) / (1 << 20));
    }
  }

  // The checks come after the memory snapshot, so their copies and
  // reference models stay out of peak_rss_MiB. A second model from the
  // same seed gives the timed model's initial and warm states bit for
  // bit: seeding and stepping are deterministic.
  const int steps = m.steps_taken();
  const state<double> final_state = m.unscaled();
  model<T> again(p, c.scheme);
  again.seed_random_eddies(opt.seed, velocity_amplitude);
  const state<double> initial = again.unscaled();
  const std::string name = std::string("swm_") + c.tag;
  r.checks.push_back(checks::finite(name + ": every field finite", final_state));
  r.checks.push_back(checks::mass_conserved(
      name + ": sum(eta dA) conserved over " + std::to_string(steps) + " steps",
      checks::mass(initial), checks::abs_mass(initial),
      checks::mass(final_state), c.mass_bound_step * steps));
  if (c.max_rel_rmse > 0) {
    again.run(c.warm_steps);
    const state<double> warm = again.unscaled();
    swm_params p64 = p;
    p64.log2_scale = 0;
    model<double> ref(p64);
    ref.seed_random_eddies(opt.seed, velocity_amplitude);
    ref.run(c.warm_steps);
    r.checks.push_back(checks::agrees(
        name + ": agrees with Float64 after " + std::to_string(c.warm_steps) +
            " steps",
        ref.unscaled(), warm, c.min_correlation, c.max_rel_rmse));
  }
  return r;
}

}  // namespace

result run_swm_step(const options& opt, precision p) {
  switch (p) {
    case precision::f64: return run_case<double>(opt, case_f64);
    case precision::f32: return run_case<float>(opt, case_f32);
    case precision::f16: return run_case<fp::float16>(opt, case_f16);
  }
  return {};
}

int float16_scale(int nx, int ny, std::uint64_t seed) {
  swm_params p;
  p.nx = nx;
  p.ny = ny;
  fp::sherlog_sink().reset();
  model<fp::sherlog32> dev(p);
  dev.seed_random_eddies(seed, velocity_amplitude);
  dev.run(15);
  return fp::choose_scaling(fp::sherlog_sink(), fp::float16_range).log2_scale;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
