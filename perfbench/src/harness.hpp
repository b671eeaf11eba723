#pragma once

/// \file harness.hpp
/// Measurement plumbing shared by every workload: the run options,
/// CPU pinning, the fastest-tenth window estimator, the span log of
/// traced runs, and the one-line JSON result.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans
};

/// Seconds on the steady clock since process start (static
/// initialisation, before main).
double now_s();

/// Pin the calling process (and every thread it starts later) to one
/// CPU of its allowed set: the highest-numbered one. Returns the CPU,
/// or -1 when the affinity call failed (the run continues unpinned).
int pin_to_one_cpu();

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();

/// Mean of the fastest tenth (at least one) of the samples: the IMB
/// t_min idea applied to equal timing windows.
double fastest_tenth_mean(std::vector<double> samples);

/// One timed interval of a traced run, kept in memory and written out
/// when the run ends.
struct span {
  const char* name;
  double t0;
  double t1;
  int parent;  ///< index of the enclosing span, -1 at top level
};

class span_log {
 public:
  /// Open a span; returns its index (or -1 once the log is full).
  int open(const char* name, int parent = -1);
  void close(int id);
  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
  /// Summed duration and count of closed spans named `name`.
  [[nodiscard]] double total(const char* name) const;
  [[nodiscard]] std::uint64_t count(const char* name) const;
  /// Tab-separated: name, start, end, parent (seconds since start).
  bool write(const std::string& path) const;

 private:
  std::vector<span> spans_;
};

/// One correctness check and its outcome.
struct check {
  std::string name;
  bool passed = false;
  std::string detail;
};

/// Row of the traced per-layer table (human-readable output).
struct layer_row {
  std::string name;
  double total_s = 0;
  std::uint64_t calls = 0;
};

/// What one workload run measured.
struct result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;
  /// Peak resident set (MiB) at the end of the untraced timed phase,
  /// before any reference run or check allocates: the program's own
  /// memory, not the benchmark's.
  double peak_rss = 0;
  double throughput = 0;         ///< operations per second
  std::string op_name;           ///< what one operation is (for humans)
  std::vector<check> checks;
  // -- traced runs only --
  std::map<std::string, double> layers;  ///< per-layer metric values
  std::vector<layer_row> table;          ///< window split for the table
  double window_s = 0;                   ///< traced window wall time
  double untraced_throughput = 0;        ///< same run, tracing off
  span_log spans;

  [[nodiscard]] bool correct() const;
};

/// Every per-layer metric name, in the order BENCHMARK.json lists them.
/// A workload reports 0 for a layer it does not exercise.
const std::vector<std::string>& per_layer_names();

/// Print the human-readable report, then the JSON line (last line).
void report(const options& opt, result& r);

}  // namespace perfbench
