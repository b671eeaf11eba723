#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>

namespace perfbench::checks {

namespace {

using tfx::swm::state;

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// Neumaier sum of f(x) over the values.
template <typename F>
double sum_of(std::span<const double> v, F f) {
  double s = 0;
  double c = 0;
  for (const double x0 : v) {
    const double x = f(x0);
    const double t = s + x;
    c += std::abs(s) >= std::abs(x) ? (s - t) + x : (x - t) + s;
    s = t;
  }
  return s + c;
}

std::vector<std::span<const double>> fields(const state<double>& s) {
  return {s.u.flat(), s.v.flat(), s.eta.flat()};
}

}  // namespace

double mass(const state<double>& s) {
  return sum_of(s.eta.flat(), [](double x) { return x; });
}

double abs_mass(const state<double>& s) {
  return sum_of(s.eta.flat(), [](double x) { return std::abs(x); });
}

check finite(const std::string& name, const state<double>& s) {
  std::size_t bad = 0;
  for (const auto f : fields(s)) {
    for (const double x : f) bad += std::isfinite(x) ? 0 : 1;
  }
  return {name, bad == 0,
          bad == 0 ? "all values finite"
                   : std::to_string(bad) + " non-finite values"};
}

check mass_conserved(const std::string& name, double mass_before,
                     double abs_mass_before, double mass_after,
                     double rel_bound) {
  const double drift =
      abs_mass_before > 0
          ? std::abs(mass_after - mass_before) / abs_mass_before
          : std::abs(mass_after - mass_before);
  return {name, std::isfinite(drift) && drift <= rel_bound,
          fmt("relative drift %.3g (bound %.3g)", drift, rel_bound)};
}

agreement compare(const state<double>& ref, const state<double>& test) {
  agreement a;
  if (ref.nx() != test.nx() || ref.ny() != test.ny()) {
    a.correlation = 0;
    a.rel_rmse = INFINITY;
    return a;
  }
  const auto rf = fields(ref);
  const auto tf = fields(test);
  double n = 0, sr = 0, st = 0;
  for (std::size_t k = 0; k < rf.size(); ++k) {
    for (std::size_t i = 0; i < rf[k].size(); ++i) {
      sr += rf[k][i];
      st += tf[k][i];
      n += 1;
    }
  }
  const double mr = sr / n;
  const double mt = st / n;
  double srr = 0, stt = 0, srt = 0, sdd = 0, sref2 = 0;
  for (std::size_t k = 0; k < rf.size(); ++k) {
    for (std::size_t i = 0; i < rf[k].size(); ++i) {
      const double r = rf[k][i];
      const double t = tf[k][i];
      srr += (r - mr) * (r - mr);
      stt += (t - mt) * (t - mt);
      srt += (r - mr) * (t - mt);
      sdd += (r - t) * (r - t);
      sref2 += r * r;
    }
  }
  a.correlation = srt / std::sqrt(srr * stt);
  a.rel_rmse = std::sqrt(sdd / sref2);
  return a;
}

check agrees(const std::string& name, const state<double>& ref,
             const state<double>& test, double min_correlation,
             double max_rel_rmse) {
  const agreement a = compare(ref, test);
  const bool ok = std::isfinite(a.correlation) && std::isfinite(a.rel_rmse) &&
                  a.correlation >= min_correlation &&
                  a.rel_rmse <= max_rel_rmse;
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "correlation %.9f (min %.9f), rel RMSE %.3g (max %.3g)",
                a.correlation, min_correlation, a.rel_rmse, max_rel_rmse);
  return {name, ok, buf};
}

check bitwise_state(const std::string& name, const state<double>& a,
                    const state<double>& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny()) {
    return {name, false, "shapes differ"};
  }
  const auto fa = fields(a);
  const auto fb = fields(b);
  std::size_t diff = 0;
  for (std::size_t k = 0; k < fa.size(); ++k) {
    for (std::size_t i = 0; i < fa[k].size(); ++i) {
      diff += std::memcmp(&fa[k][i], &fb[k][i], sizeof(double)) != 0 ? 1 : 0;
    }
  }
  return {name, diff == 0,
          diff == 0 ? "bit-identical"
                    : std::to_string(diff) + " values differ"};
}

check bitwise_values(const std::string& name, const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) return {name, false, "lengths differ"};
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += std::memcmp(&a[i], &b[i], sizeof(double)) != 0 ? 1 : 0;
  }
  return {name, diff == 0,
          diff == 0 ? std::to_string(a.size()) + " values bit-identical"
                    : std::to_string(diff) + " values differ"};
}

check equal_count(const std::string& name, std::uint64_t got,
                  std::uint64_t want) {
  return {name, got == want,
          std::to_string(got) + (got == want ? " == " : " != ") +
              std::to_string(want)};
}

check at_least(const std::string& name, double got, double floor) {
  return {name, got >= floor, fmt("%.9g >= %.9g", got, floor)};
}

std::uint64_t halo_messages_per_step(int ranks) {
  if (ranks <= 1) return 0;
  constexpr std::uint64_t rhs_evals = 4, phases = 2, directions = 2;
  return rhs_evals * phases * directions;
}

std::uint64_t halo_bytes_per_step(int ranks, int nx,
                                  std::size_t elem_bytes) {
  if (ranks <= 1) return 0;
  constexpr std::uint64_t rhs_evals = 4, rows = 3 + 4, directions = 2;
  return rhs_evals * rows * directions * static_cast<std::uint64_t>(nx) *
         elem_bytes;
}

int torus_distance(const tfx::mpisim::torus_placement& place, int node_a,
                   int node_b) {
  const auto a = place.coords_of(node_a);
  const auto b = place.coords_of(node_b);
  int d = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const int n = place.shape()[k];
    const int fwd = ((b[k] - a[k]) % n + n) % n;
    d += std::min(fwd, n - fwd);
  }
  return d;
}

std::uint64_t inter_node_sends(const tfx::mpisim::sim_program& prog,
                               const tfx::mpisim::torus_placement& place) {
  std::uint64_t n = 0;
  for (int r = 0; r < prog.size(); ++r) {
    for (const auto& op : prog.ranks[static_cast<std::size_t>(r)]) {
      if (op.what == tfx::mpisim::sim_op::kind::send &&
          place.node_of(r) != place.node_of(op.peer)) {
        ++n;
      }
    }
  }
  return n;
}

std::uint64_t inter_node_hops(const tfx::mpisim::sim_program& prog,
                              const tfx::mpisim::torus_placement& place) {
  std::uint64_t n = 0;
  for (int r = 0; r < prog.size(); ++r) {
    for (const auto& op : prog.ranks[static_cast<std::size_t>(r)]) {
      if (op.what == tfx::mpisim::sim_op::kind::send) {
        n += static_cast<std::uint64_t>(
            torus_distance(place, place.node_of(r), place.node_of(op.peer)));
      }
    }
  }
  return n;
}

std::uint64_t op_count(const tfx::mpisim::sim_program& prog) {
  std::uint64_t n = 0;
  for (const auto& ops : prog.ranks) n += ops.size();
  return n;
}

}  // namespace perfbench::checks
