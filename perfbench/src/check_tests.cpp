// Shows that each of the benchmark's correctness checks can fail: every
// case feeds a check one correct input, which must pass, and one
// corrupted the way a real fault would corrupt it, which must fail.
//
//   perfbench_check_tests      (exit code 0 when every case behaves)

#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"
#include "swm/model.hpp"

namespace {

using namespace perfbench;
using tfx::swm::state;

int failures = 0;

void expect(const char* what, const check& good, const check& bad) {
  const bool ok = good.passed && !bad.passed;
  std::printf("%s %-58s good: %s | corrupted: %s\n", ok ? "ok  " : "FAIL",
              what, good.detail.c_str(), bad.detail.c_str());
  failures += ok ? 0 : 1;
}

state<double> seeded_state(int nx, int ny, int steps) {
  tfx::swm::swm_params p;
  p.nx = nx;
  p.ny = ny;
  tfx::swm::model<double> m(p);
  m.seed_random_eddies(7, 0.5);
  m.run(steps);
  return m.prognostic();
}

}  // namespace

int main() {
  const state<double> s0 = seeded_state(64, 32, 0);
  const state<double> s = seeded_state(64, 32, 20);

  {  // A NaN anywhere in the fields.
    state<double> bad = s;
    bad.v(5, 7) = NAN;
    expect("finite: NaN in v", checks::finite("", s), checks::finite("", bad));
  }
  {  // Mass injected into one cell: 1e-12 of the field's total |eta|.
    const double m0 = checks::mass(s0), a0 = checks::abs_mass(s0);
    state<double> bad = s;
    bad.eta(3, 4) += 1e-12 * a0;
    expect("mass: injected 1e-12 relative mass change",
           checks::mass_conserved("", m0, a0, checks::mass(s), 20 * 1e-18),
           checks::mass_conserved("", m0, a0, checks::mass(bad), 20 * 1e-18));
  }
  {  // A reduced-precision run whose one field went wrong.
    state<double> near = s, bad = s;
    for (auto& x : near.eta.flat()) x *= 1 + 1e-8;
    for (auto& x : bad.u.flat()) x *= 1.05;
    expect("agreement: u off by 5 %",
           checks::agrees("", s, near, 0.9999999, 3e-6),
           checks::agrees("", s, bad, 0.9999999, 3e-6));
  }
  {  // One ulp in one value of a gathered distributed field.
    state<double> bad = s;
    bad.eta(10, 20) = std::nextafter(bad.eta(10, 20), INFINITY);
    expect("bitwise state: one ulp in eta", checks::bitwise_state("", s, s),
           checks::bitwise_state("", s, bad));
  }
  {  // One ulp in one rank's virtual clock.
    const std::vector<double> clocks{1.5e-5, 1.5e-5, 1.7e-5, 1.6e-5};
    std::vector<double> bad = clocks;
    bad[2] = std::nextafter(bad[2], 0.0);
    expect("bitwise clocks: one ulp on rank 2",
           checks::bitwise_values("", clocks, clocks),
           checks::bitwise_values("", clocks, bad));
  }
  {  // Halo counts: a model that sent one message too many per step.
    const std::uint64_t want = checks::halo_messages_per_step(4);
    expect("halo messages: one extra send",
           checks::equal_count("", 16, want),
           checks::equal_count("", 17, want));
    const std::uint64_t bytes = checks::halo_bytes_per_step(4, 128, 8);
    expect("halo bytes: one row short",
           checks::equal_count("", 57344, bytes),
           checks::equal_count("", 57344 - 1024, bytes));
  }
  {  // DES: hop and message counts against the engine's, and one wrong.
    using namespace tfx::mpisim;
    const tofud_params net;
    const torus_placement place({4, 6, 16}, 4);
    const auto prog = make_gatherv_program(place.rank_count(), 1024, 8, 5);
    des_options o;
    o.fabric = fabric_mode::contended;
    const des_result con = simulate(prog, net, place, {}, nullptr, o);
    const des_result unc = simulate(prog, net, place);
    const std::uint64_t hops = checks::inter_node_hops(prog, place);
    expect("link hops: one hop too many",
           checks::equal_count("", con.links.link_hops, hops),
           checks::equal_count("", con.links.link_hops + 1, hops));
    const std::uint64_t sends = checks::inter_node_sends(prog, place);
    expect("routed messages: one lost",
           checks::equal_count("", con.links.routed_messages, sends),
           checks::equal_count("", con.links.routed_messages - 1, sends));
    expect("contended >= uncontended: contended clock too small",
           checks::at_least("", con.max_clock(), unc.max_clock()),
           checks::at_least("", unc.max_clock() * (1 - 1e-9),
                            unc.max_clock()));
  }
  {  // The torus distance from coordinates, on hand-checked cases.
    const tfx::mpisim::torus_placement place({4, 6, 16}, 1);
    const int a = place.node_at({0, 0, 0});
    const int b = place.node_at({3, 5, 15});  // one step back in each ring
    const int c = place.node_at({2, 3, 8});   // half way round each ring
    expect("torus distance (0,0,0)->(3,5,15) is 3",
           checks::equal_count("", checks::torus_distance(place, a, b), 3),
           checks::equal_count("", checks::torus_distance(place, a, b), 4));
    expect("torus distance (0,0,0)->(2,3,8) is 13",
           checks::equal_count("", checks::torus_distance(place, a, c), 13),
           checks::equal_count("", checks::torus_distance(place, a, c), 12));
  }
  std::printf("%s: %d case(s) failed\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
