// des_fig3: the paper's Fig. 3 collectives on the discrete-event engine.
// Allreduce, Reduce and Gatherv at 1536 ranks on 384 nodes (the 4x6x16
// torus, 4 ranks per node) over four message sizes, plus a 4096-rank
// flat and hierarchical allreduce; each program is built and simulated
// on both fabrics. Only mpisim patterns/des/network run.

#include <string>
#include <vector>

#include "checks.hpp"
#include "mpisim/collectives.hpp"
#include "mpisim/des.hpp"
#include "mpisim/patterns.hpp"
#include "mpisim/runtime.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tfx;
using namespace tfx::mpisim;

enum class coll { allreduce, reduce, gatherv, hier_allreduce };

struct program_spec {
  coll kind;
  const torus_placement* place;
  std::size_t bytes;
  std::string name;
  int root = 0;  ///< reduce and gatherv
};

sim_program build(const tofud_params& net, const program_spec& s) {
  const int p = s.place->rank_count();
  const std::size_t count = s.bytes / sizeof(double);
  switch (s.kind) {
    case coll::allreduce:
      return make_allreduce_program(net, p, count, sizeof(double),
                                    coll_algorithm::automatic);
    case coll::reduce:
      return make_reduce_program(net, p, count, sizeof(double), s.root);
    case coll::gatherv:
      return make_gatherv_program(p, count, sizeof(double), s.root);
    case coll::hier_allreduce:
      return make_hierarchical_allreduce_program(net, *s.place, count,
                                                 sizeof(double));
  }
  return sim_program(0);
}

des_options fabric(fabric_mode m) {
  des_options o;
  o.fabric = m;
  return o;
}

/// Rank clocks of the threaded runtime running the same collectives
/// at a thread-runnable size, against the DES of their programs.
void threaded_cross_check(result& r, const tofud_params& net) {
  const torus_placement place({2, 1, 1}, 4);  // 8 ranks on 2 nodes
  const int p = place.rank_count();
  const std::size_t count = 128;  // 1 KiB of doubles
  struct one {
    const char* name;
    coll kind;
  };
  for (const one& c : {one{"allreduce", coll::allreduce},
                       one{"reduce", coll::reduce},
                       one{"gatherv", coll::gatherv}}) {
    world w(place, net);
    w.run([&](communicator& comm) {
      std::vector<double> in(count, 1.0 + comm.rank());
      std::vector<double> out(c.kind == coll::gatherv ? count * p : count);
      if (c.kind == coll::allreduce) {
        allreduce(comm, std::span<const double>(in), std::span<double>(out),
                  ops::sum{});
      } else if (c.kind == coll::reduce) {
        reduce(comm, std::span<const double>(in), std::span<double>(out),
               ops::sum{}, 0);
      } else {
        std::vector<std::size_t> counts(static_cast<std::size_t>(p), count);
        gatherv(comm, std::span<const double>(in),
                std::span<const std::size_t>(counts), std::span<double>(out),
                0);
      }
    });
    const program_spec spec{c.kind, &place, count * sizeof(double), c.name, 0};
    const des_result des = simulate(build(net, spec), net, place);
    r.checks.push_back(checks::bitwise_values(
        std::string("des_fig3: DES clocks == threaded runtime, 8-rank ") +
            c.name,
        w.final_clocks(), des.clocks));
  }
}

}  // namespace

result run_des_fig3(const options& opt) {
  result r;
  r.op_name = "build one collective program and simulate it on both "
              "fabrics; throughput in simulated rank-collectives per "
              "host second";
  const tofud_params net;
  const torus_placement fig3({4, 6, 16}, 4);
  const torus_placement big({8, 8, 16}, 4);
  std::vector<program_spec> suite;
  // The seed picks the root of Reduce and Gatherv, which moves the
  // routes and contention but not the op count.
  const int root = static_cast<int>(mix_seed(opt.seed, 0) %
                                    static_cast<std::uint64_t>(fig3.rank_count()));
  const char* names[] = {"allreduce", "reduce", "gatherv"};
  for (const coll k : {coll::allreduce, coll::reduce, coll::gatherv}) {
    for (const std::size_t bytes : {8u, 1024u, 8192u, 65536u}) {
      suite.push_back({k, &fig3, bytes,
                       std::string(names[static_cast<int>(k)]) + "_1536_" +
                           std::to_string(bytes) + "B",
                       root});
    }
  }
  suite.push_back({coll::allreduce, &big, 8192, "allreduce_4096_8192B"});
  suite.push_back({coll::hier_allreduce, &big, 8192,
                   "hier_allreduce_4096_8192B"});
  std::vector<sim_program> programs;
  for (const auto& s : suite) programs.push_back(build(net, s));
  r.setup_s = now_s();

  const std::size_t n = suite.size();
  std::vector<std::vector<double>> op_t(n), build_t(n), unc_t(n), con_t(n);
  std::vector<des_result> unc(n), con(n);
  double rank_colls = 0;
  for (const auto& s : suite) rank_colls += 2.0 * s.place->rank_count();

  span_log& log = r.spans;
  auto rounds = [&](double seconds, bool trace) {
    const double end = now_s() + seconds;
    do {
      for (std::size_t i = 0; i < n; ++i) {
        const program_spec& s = suite[i];
        const int top = trace ? log.open("des.op") : -1;
        const double t0 = now_s();
        const int b = trace ? log.open("mpisim.build", top) : -1;
        programs[i] = build(net, s);
        const double t1 = now_s();
        log.close(b);
        const int u = trace ? log.open("mpisim.simulate_uncontended", top)
                            : -1;
        unc[i] = simulate(programs[i], net, *s.place);
        const double t2 = now_s();
        log.close(u);
        const int c = trace ? log.open("mpisim.simulate_contended", top) : -1;
        con[i] = simulate(programs[i], net, *s.place, {}, nullptr,
                          fabric(fabric_mode::contended));
        const double t3 = now_s();
        log.close(c);
        log.close(top);
        op_t[i].push_back(t3 - t0);
        build_t[i].push_back(t1 - t0);
        unc_t[i].push_back(t2 - t1);
        con_t[i].push_back(t3 - t2);
        ++r.attempted;
      }
    } while (now_s() < end);
  };
  auto round_seconds = [&](const std::vector<std::vector<double>>& t) {
    double s = 0;
    for (const auto& v : t) s += fastest_tenth_mean(v);
    return s;
  };

  rounds(opt.trace ? opt.seconds / 2 : opt.seconds, false);
  r.throughput = rank_colls / round_seconds(op_t);
  r.peak_rss = peak_rss_mib();
  if (opt.trace) {
    for (auto* v : {&op_t, &build_t, &unc_t, &con_t}) {
      for (auto& x : *v) x.clear();
    }
    const double w0 = now_s();
    rounds(opt.seconds / 2, true);
    r.window_s = now_s() - w0;
    r.untraced_throughput = r.throughput;
    r.throughput = rank_colls / round_seconds(op_t);
    r.table = {{"mpisim.build", log.total("mpisim.build"),
                log.count("mpisim.build")},
               {"mpisim.simulate_uncontended",
                log.total("mpisim.simulate_uncontended"),
                log.count("mpisim.simulate_uncontended")},
               {"mpisim.simulate_contended",
                log.total("mpisim.simulate_contended"),
                log.count("mpisim.simulate_contended")}};
    r.layers["mpisim.build_s"] = round_seconds(build_t);
    r.layers["mpisim.simulate_uncontended_s"] = round_seconds(unc_t);
    r.layers["mpisim.simulate_contended_s"] = round_seconds(con_t);
  }

  std::uint64_t ops = 0, hops = 0, contended_hops = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string name = "des_fig3 " + suite[i].name + ": ";
    r.checks.push_back(checks::at_least(name + "contended clock >= uncontended",
                                        con[i].max_clock(),
                                        unc[i].max_clock()));
    r.checks.push_back(checks::equal_count(
        name + "routed messages == inter-node sends",
        con[i].links.routed_messages,
        checks::inter_node_sends(programs[i], *suite[i].place)));
    r.checks.push_back(checks::equal_count(
        name + "link hops == torus distances", con[i].links.link_hops,
        checks::inter_node_hops(programs[i], *suite[i].place)));
    ops += checks::op_count(programs[i]);
    hops += con[i].links.link_hops;
    contended_hops += con[i].links.contended_hops;
    if (suite[i].place == &fig3 && suite[i].bytes == 8192 &&
        suite[i].kind != coll::reduce) {
      const std::string k = suite[i].kind == coll::allreduce ? "allreduce"
                                                             : "gatherv";
      r.layers["mpisim.sim_" + k + "_8KiB_uncontended_s"] = unc[i].max_clock();
      r.layers["mpisim.sim_" + k + "_8KiB_contended_s"] = con[i].max_clock();
    }
  }
  r.layers["mpisim.ops"] = static_cast<double>(ops);
  r.layers["mpisim.link_hops"] = static_cast<double>(hops);
  r.layers["mpisim.contended_hops"] = static_cast<double>(contended_hops);
  threaded_cross_check(r, net);
  return r;
}

}  // namespace perfbench
