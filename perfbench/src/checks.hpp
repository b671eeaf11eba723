#pragma once

/// \file checks.hpp
/// The benchmark's correctness checks. Each compares a program output
/// with an independent computation or a required property, never with
/// a stored copy of an earlier output. They are plain functions of
/// their inputs so check_tests.cpp can show that each one fails on a
/// corrupted input.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mpisim/network.hpp"
#include "mpisim/patterns.hpp"
#include "swm/field.hpp"

namespace perfbench::checks {

/// Sum of eta over the grid (Neumaier-compensated, so the check's own
/// rounding stays far below the bounds it tests).
double mass(const tfx::swm::state<double>& s);
/// Sum of |eta|: the scale a mass drift is measured against.
double abs_mass(const tfx::swm::state<double>& s);

/// Every value of u, v and eta is finite.
check finite(const std::string& name, const tfx::swm::state<double>& s);

/// |mass_after - mass_before| <= rel_bound * abs_mass_before.
check mass_conserved(const std::string& name, double mass_before,
                     double abs_mass_before, double mass_after,
                     double rel_bound);

/// Pearson correlation and RMSE relative to the reference's RMS, over
/// u, v and eta together.
struct agreement {
  double correlation = 0;
  double rel_rmse = 0;
};
agreement compare(const tfx::swm::state<double>& ref,
                  const tfx::swm::state<double>& test);
check agrees(const std::string& name, const tfx::swm::state<double>& ref,
             const tfx::swm::state<double>& test, double min_correlation,
             double max_rel_rmse);

/// Bit-for-bit equality of two states (shapes included).
check bitwise_state(const std::string& name,
                    const tfx::swm::state<double>& a,
                    const tfx::swm::state<double>& b);

/// Bit-for-bit equality of two vectors of doubles (e.g. rank clocks).
check bitwise_values(const std::string& name, const std::vector<double>& a,
                     const std::vector<double>& b);

check equal_count(const std::string& name, std::uint64_t got,
                  std::uint64_t want);
check at_least(const std::string& name, double got, double floor);

// -- independent counts ---------------------------------------------------

/// Halo sends one rank posts per RK4 step, from the geometry: four RHS
/// evaluations, two packed phases each, one message per neighbour
/// direction. A single rank exchanges nothing.
std::uint64_t halo_messages_per_step(int ranks);
/// Payload bytes one rank sends per RK4 step: four RHS evaluations of
/// 3 prognostic + 4 derived rows of nx elements, to two neighbours.
std::uint64_t halo_bytes_per_step(int ranks, int nx, std::size_t elem_bytes);

/// Torus distance between two nodes, from their coordinates: per
/// dimension the shorter way round the ring.
int torus_distance(const tfx::mpisim::torus_placement& place, int node_a,
                   int node_b);
/// Sends in `prog` whose endpoints sit on different nodes.
std::uint64_t inter_node_sends(const tfx::mpisim::sim_program& prog,
                               const tfx::mpisim::torus_placement& place);
/// Sum of torus distances over those sends.
std::uint64_t inter_node_hops(const tfx::mpisim::sim_program& prog,
                              const tfx::mpisim::torus_placement& place);
/// All ops (send, recv, compute) of a program.
std::uint64_t op_count(const tfx::mpisim::sim_program& prog);

}  // namespace perfbench::checks
