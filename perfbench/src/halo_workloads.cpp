// halo_inproc / halo_socket: swm::distributed_model at a small grid
// (16 rows per rank), where the halo exchange and the transport's
// deposit/collect dominate and the RHS does little.
//
//   halo_inproc: 4 ranks on the default transport (transport_options{}),
//                so the metric follows whatever the default becomes.
//   halo_socket: 2 ranks over loopback TCP, all in this process.
//
// Every rank is a thread of this process, so all ranks share the one
// pinned CPU.

#include <algorithm>
#include <cstring>
#include <vector>

#include "checks.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/transport.hpp"
#include "obs/trace.hpp"
#include "swm/distributed.hpp"
#include "swm/halo.hpp"
#include "swm/model.hpp"
#include "swm/perfmodel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tfx;
using namespace tfx::swm;
using mpisim::communicator;
using mpisim::transport_kind;
using mpisim::transport_options;
using mpisim::world;

constexpr int nx = 128;
constexpr int rows_per_rank = 16;
constexpr int warm_steps = 20;
constexpr int steps_per_window = 32;
constexpr double velocity_amplitude = 0.5;
// Relative mass drift allowed per step: the serial f64 bound
// (swm_workloads.cpp); measured here at ~1e-20.
constexpr double mass_bound_step = 1e-18;

struct halo_case {
  const char* tag;
  int ranks;
  transport_options topt;
  transport_options other;  ///< second transport for the clock check
};

halo_case case_of(transport t) {
  if (t == transport::inproc) {
    transport_options shm;
    shm.kind = transport_kind::shm;
    return {"inproc", 4, transport_options{}, shm};
  }
  transport_options sock;
  sock.kind = transport_kind::socket;
  return {"socket", 2, sock, transport_options{}};
}

swm_params params_for(int ranks) {
  swm_params p;
  p.nx = nx;
  p.ny = rows_per_rank * ranks;
  p.Ly = p.Lx * p.ny / p.nx;  // square cells, as the RHS requires
  return p;
}

/// One halo_exchanger start/finish of the 4-field derived phase.
double halo_exchange_seconds(const halo_case& c) {
  world w(c.ranks, mpisim::tofud_params{}, c.topt);
  std::vector<double> times;
  w.run([&](communicator& comm) {
    std::vector<slab<double>> f;
    for (int k = 0; k < 4; ++k) {
      f.emplace_back(nx, rows_per_rank);
      f.back().fill(static_cast<double>(k + comm.rank()));
    }
    halo_exchanger<double> hx(comm, nx);
    for (int win = 0; win < 100; ++win) {
      const double t0 = now_s();
      for (int i = 0; i < 16; ++i) {
        hx.start(halo_exchanger<double>::phase::derived,
                 {&f[0], &f[1], &f[2], &f[3]});
        hx.finish();
      }
      if (comm.rank() == 0) times.push_back((now_s() - t0) / 16);
    }
  });
  return fastest_tenth_mean(times);
}

/// One halo-row send and its echo between two ranks.
double p2p_roundtrip_seconds(const halo_case& c) {
  world w(2, mpisim::tofud_params{}, c.topt);
  std::vector<double> times;
  w.run([&](communicator& comm) {
    std::vector<double> row(nx, 1.0);
    for (int win = 0; win < 100; ++win) {
      const double t0 = now_s();
      for (int i = 0; i < 16; ++i) {
        if (comm.rank() == 0) {
          comm.send(std::span<const double>(row), 1, 7);
          comm.recv(std::span<double>(row), 1, 7);
        } else {
          comm.recv(std::span<double>(row), 0, 7);
          comm.send(std::span<const double>(row), 0, 7);
        }
      }
      if (comm.rank() == 0) times.push_back((now_s() - t0) / 16);
    }
  });
  return fastest_tenth_mean(times);
}

/// One step of one rank's slab with no neighbours: the compute floor.
double dist_compute_seconds(const state<double>& global_slab) {
  world w(1);
  std::vector<double> times;
  w.run([&](communicator& comm) {
    distributed_model<double> m(comm, params_for(1));
    m.set_from_global(global_slab);
    for (int win = 0; win < 40; ++win) {
      const double t0 = now_s();
      m.run(16);
      times.push_back((now_s() - t0) / 16);
    }
  });
  return fastest_tenth_mean(times);
}

/// Clocks of every rank after `steps` steps on a given transport.
std::vector<double> clocks_after(int ranks, const transport_options& topt,
                                 const state<double>& global, int steps) {
  world w(ranks, mpisim::tofud_params{}, topt);
  w.run([&](communicator& comm) {
    distributed_model<double> m(comm, params_for(ranks));
    m.set_from_global(global);
    m.run(steps);
  });
  return w.final_clocks();
}

/// Sends and payload bytes of rank 0 during one step, counted from the
/// runtime's own net.send events.
void count_one_step(int ranks, const transport_options& topt,
                    const state<double>& global, std::uint64_t& messages,
                    std::uint64_t& bytes) {
  world w(ranks, mpisim::tofud_params{}, topt);
  obs::start(1 << 16);
  w.run([&](communicator& comm) {
    distributed_model<double> m(comm, params_for(ranks));
    m.set_from_global(global);
    m.step();
  });
  obs::stop();
  messages = 0;
  bytes = 0;
  for (const obs::event& e : obs::collect()) {
    if (e.dom == obs::domain::net && e.track == 0 && e.name != nullptr &&
        std::strcmp(e.name, "net.send") == 0) {
      ++messages;
      bytes += e.b;
    }
  }
}

}  // namespace

result run_swm_halo(const options& opt, transport t) {
  const halo_case c = case_of(t);
  result r;
  r.op_name = std::string("one distributed RK4 step, ") +
              std::to_string(c.ranks) + " ranks x " +
              std::to_string(rows_per_rank) + " rows of " +
              std::to_string(nx) + ", " + c.tag + " transport; throughput "
              "in steps/s";
  if (t == transport::socket && !mpisim::transport_manager::loopback_available()) {
    r.checks.push_back({"halo_socket: loopback TCP available", false,
                        "cannot open a loopback TCP connection"});
    return r;
  }
  const swm_params p = params_for(c.ranks);
  model<double> seeded(p);
  seeded.seed_random_eddies(opt.seed, velocity_amplitude);
  const state<double> global = seeded.prognostic();
  world w(c.ranks, mpisim::tofud_params{}, c.topt);

  state<double> warm, final_state;
  std::vector<double> ready(static_cast<std::size_t>(c.ranks));
  std::vector<double> warm_clocks(static_cast<std::size_t>(c.ranks));
  std::vector<double> untraced, traced;
  int steps = 0;
  double traced_window_s = 0;
  span_log& log = r.spans;
  w.run([&](communicator& comm) {
    distributed_model<double> m(comm, p);
    m.set_from_global(global);
    ready[static_cast<std::size_t>(comm.rank())] = now_s();
    m.run(warm_steps);
    warm_clocks[static_cast<std::size_t>(comm.rank())] = comm.now();
    state<double> g = m.gather_global();
    if (comm.rank() == 0) warm = std::move(g);

    // Rank 0 times windows of steps and tells the others whether to go
    // on; the flag's bcast sits outside the timed window.
    auto windows = [&](double seconds, std::vector<double>& out,
                       bool trace) {
      const double end = now_s() + seconds;
      const double w0 = now_s();
      int go = 1;
      while (go != 0) {
        const int id = trace && comm.rank() == 0 ? log.open("swm.dist_window")
                                                 : -1;
        const double t0 = now_s();
        m.run(steps_per_window);
        if (comm.rank() == 0) {
          out.push_back((now_s() - t0) / steps_per_window);
          log.close(id);
          go = now_s() < end ? 1 : 0;
        }
        mpisim::bcast(comm, std::span<int>(&go, 1), 0);
      }
      if (trace && comm.rank() == 0) traced_window_s = now_s() - w0;
    };
    windows(opt.trace ? opt.seconds / 2 : opt.seconds, untraced, false);
    if (opt.trace) windows(opt.seconds / 2, traced, true);
    g = m.gather_global();
    if (comm.rank() == 0) {
      final_state = std::move(g);
      steps = warm_steps + static_cast<int>(untraced.size() + traced.size()) *
                               steps_per_window;
    }
  });
  // Set-up ends when the last rank holds its slab.
  r.setup_s = *std::max_element(ready.begin(), ready.end());
  r.peak_rss = peak_rss_mib();
  r.attempted = (untraced.size() + traced.size()) * steps_per_window;
  r.throughput = 1.0 / fastest_tenth_mean(untraced);

  const std::string name = std::string("halo_") + c.tag;
  model<double> serial(p);
  serial.seed_random_eddies(opt.seed, velocity_amplitude);
  serial.run(warm_steps);
  r.checks.push_back(checks::bitwise_state(
      name + ": gathered state == serial model after " +
          std::to_string(warm_steps) + " steps",
      warm, serial.prognostic()));
  r.checks.push_back(checks::finite(name + ": every field finite", final_state));
  r.checks.push_back(checks::mass_conserved(
      name + ": sum(eta dA) conserved over " + std::to_string(steps) + " steps",
      checks::mass(global), checks::abs_mass(global),
      checks::mass(final_state), mass_bound_step * steps));

  std::uint64_t messages = 0, bytes = 0;
  count_one_step(c.ranks, c.topt, global, messages, bytes);
  const halo_cost predicted =
      predict_halo(mpisim::tofud_params{}, nx, sizeof(double), c.ranks,
                   halo_mode::aggregated_overlap);
  r.checks.push_back(checks::equal_count(
      name + ": sends per step == geometry", messages,
      checks::halo_messages_per_step(c.ranks)));
  r.checks.push_back(checks::equal_count(
      name + ": sends per step == predict_halo", messages,
      predicted.messages));
  r.checks.push_back(checks::equal_count(
      name + ": bytes per step == geometry", bytes,
      checks::halo_bytes_per_step(c.ranks, nx, sizeof(double))));
  r.checks.push_back(checks::equal_count(
      name + ": bytes per step == predict_halo", bytes, predicted.bytes));
  r.checks.push_back(checks::bitwise_values(
      name + ": rank clocks == on " +
          mpisim::transport_manager::name_of(c.other.kind) + " transport",
      warm_clocks, clocks_after(c.ranks, c.other, global, warm_steps)));

  if (opt.trace) {
    r.untraced_throughput = r.throughput;
    r.throughput = 1.0 / fastest_tenth_mean(traced);
    r.window_s = traced_window_s;
    const double traced_steps =
        static_cast<double>(traced.size() * steps_per_window);
    state<double> slab0(nx, rows_per_rank);
    for (int j = 0; j < rows_per_rank; ++j) {
      for (int i = 0; i < nx; ++i) {
        slab0.u(i, j) = global.u(i, j);
        slab0.v(i, j) = global.v(i, j);
        slab0.eta(i, j) = global.eta(i, j);
      }
    }
    const int id = log.open("probes");
    const double compute = dist_compute_seconds(slab0);
    const double exchange = halo_exchange_seconds(c);
    const double roundtrip = p2p_roundtrip_seconds(c);
    log.close(id);
    r.layers["swm.dist_compute_s"] = compute;
    r.layers[std::string("swm.halo_exchange_") + c.tag + "_s"] = exchange;
    r.layers[std::string("mpisim.p2p_roundtrip_") + c.tag + "_s"] = roundtrip;
    r.layers["swm.halo_messages_per_step"] = static_cast<double>(messages);
    r.layers["swm.halo_bytes_per_step"] = static_cast<double>(bytes);
    r.layers["mpisim.vclock_step_s"] = warm_clocks[0] / warm_steps;
    // The step is one public call, so the window splits by probe: the
    // ranks' compute floor and 8 exchanges per step, each timed alone.
    r.table = {{"swm.dist_compute x ranks (probe estimate)",
                compute * c.ranks * traced_steps,
                static_cast<std::uint64_t>(traced_steps) * c.ranks},
               {"swm.halo_exchange x 8 (probe estimate)",
                exchange * 8 * traced_steps,
                static_cast<std::uint64_t>(traced_steps) * 8}};
  }
  return r;
}

}  // namespace perfbench
