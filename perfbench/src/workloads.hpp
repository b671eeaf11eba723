#pragma once

/// \file workloads.hpp
/// One function per workload family. Each builds its inputs from
/// options::seed, times `seconds` of operations after a warm-up,
/// checks the outputs and returns what it measured.

#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class precision { f64, f32, f16 };
enum class transport { inproc, socket };

result run_swm_step(const options& opt, precision p);
result run_swm_halo(const options& opt, transport t);
result run_ensemble(const options& opt);
result run_ensemble_probe(const options& opt);
result run_des_fig3(const options& opt);

/// The Float16 scale exponent k (s = 2^k) a Sherlog32 development run
/// of an nx x ny model from `seed` chooses, as a user sets up a
/// Float16 run (paper Sec. III-B; examples/swm_cli --auto-scale).
int float16_scale(int nx, int ny, std::uint64_t seed);

/// Deterministic 64-bit stream derived from a seed (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Calls `op` in windows of `per_window` calls until `seconds` of wall
/// time have passed; returns each window's duration. At least one
/// window runs.
template <typename Op>
std::vector<double> timed_windows(double seconds, int per_window, Op&& op) {
  std::vector<double> windows;
  const double end = now_s() + seconds;
  do {
    const double t0 = now_s();
    for (int i = 0; i < per_window; ++i) op();
    windows.push_back(now_s() - t0);
  } while (now_s() < end);
  return windows;
}

/// Per-call times of `fn`, called until both `min_calls` calls and
/// `min_seconds` have passed.
template <typename Fn>
std::vector<double> call_times(int min_calls, double min_seconds, Fn&& fn) {
  std::vector<double> t;
  const double end = now_s() + min_seconds;
  while (static_cast<int>(t.size()) < min_calls || now_s() < end) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return t;
}

}  // namespace perfbench
