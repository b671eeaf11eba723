// ensemble: a wave of 194 small members drained by one worker through
// manual drive(1) rounds. Two native shapes take the batched apply
// (96 x f64 32x16, 96 x f32 48x24); 2 compensated Float16 members
// (32x16) take the per-member apply. Scheduler rounds, tiling and the
// batched apply dominate; the RHS is the swm_* layer at L2-resident
// sizes.
//
// ens_probe: the asynchronous service with one worker, kept busy by 32
// long-running f64 members; one client in a closed loop submits a
// 4-step 32x16 probe job, waits for it, and submits the next.

#include <optional>
#include <vector>

#include "checks.hpp"
#include "ensemble/engine.hpp"
#include "fp/float16.hpp"
#include "kernels/sweeps.hpp"
#include "swm/model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace tfx;
using namespace tfx::ensemble;

constexpr int wave_steps = 64;  ///< per member; a multiple of the stride
constexpr int probe_steps = 4;
constexpr int background_members = 32;
constexpr int probes_per_session = 256;

member_config member(personality prec, int nx, int ny, std::uint64_t seed,
                     int steps, int log2_scale = 0) {
  member_config cfg;
  cfg.prec = prec;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.seed = seed;
  cfg.steps = steps;
  cfg.log2_scale = log2_scale;
  return cfg;
}

std::vector<member_config> wave_configs(std::uint64_t seed) {
  std::vector<member_config> out;
  for (std::uint64_t i = 0; i < 96; ++i) {
    out.push_back(member(personality::float64, 32, 16, mix_seed(seed, i),
                         wave_steps));
  }
  for (std::uint64_t i = 0; i < 96; ++i) {
    out.push_back(member(personality::float32, 48, 24,
                         mix_seed(seed, 1000 + i), wave_steps));
  }
  const int k = float16_scale(32, 16, seed);
  for (std::uint64_t i = 0; i < 2; ++i) {
    out.push_back(member(personality::float16, 32, 16,
                         mix_seed(seed, 2000 + i), wave_steps, k));
  }
  return out;
}

/// The member run standalone through swm::model, as the engine's
/// contract says it must match bit for bit (Kahan bits included).
template <typename T>
void standalone(const member_config& cfg, int steps,
                swm::state<double>& prog, swm::state<double>& comp) {
  swm::swm_params p;
  p.nx = cfg.nx;
  p.ny = cfg.ny;
  p.log2_scale = cfg.log2_scale;
  const auto scheme = cfg.prec == personality::float16
                          ? swm::integration_scheme::compensated
                          : swm::integration_scheme::standard;
  swm::model<T> m(p, scheme);
  m.seed_random_eddies(cfg.seed, cfg.velocity_amplitude);
  m.run(steps);
  prog = swm::convert_state<double>(m.prognostic());
  comp = swm::convert_state<double>(m.compensation());
}

void oracle_check(result& r, const std::string& what, const member_config& cfg,
                  const job_result& got) {
  swm::state<double> prog, comp;
  switch (cfg.prec) {
    case personality::float32:
      standalone<float>(cfg, got.steps_done, prog, comp);
      break;
    case personality::float16:
      standalone<fp::float16>(cfg, got.steps_done, prog, comp);
      break;
    default:
      standalone<double>(cfg, got.steps_done, prog, comp);
      break;
  }
  r.checks.push_back(checks::bitwise_state(
      what + " == standalone model (" + personality_name(cfg.prec) + ", " +
          std::to_string(got.steps_done) + " steps)",
      got.prognostic, prog));
  r.checks.push_back(checks::bitwise_state(
      what + " Kahan compensation == standalone model", got.compensation,
      comp));
}

/// Time of one sweeps::rk4_update_batched call over one tile of f64
/// 32x16 members (three fields each), as the engine batches them.
double rk4_batched_seconds(std::size_t tile) {
  const std::size_t n = 32 * 16;
  const std::size_t items = 3 * tile;
  std::vector<std::vector<double>> arrays(6 * items,
                                          std::vector<double>(n, 1e-3));
  std::vector<kernels::sweeps::rk4_batch_item<double>> batch;
  for (std::size_t i = 0; i < items; ++i) {
    auto* a = &arrays[6 * i];
    batch.push_back({a[0], a[1], a[2], a[3], a[4], a[5]});
  }
  const auto t = call_times(200, 0.2, [&] {
    kernels::sweeps::rk4_update_batched<double>(batch);
  });
  return fastest_tenth_mean(t);
}

}  // namespace

result run_ensemble(const options& opt) {
  result r;
  r.op_name = "one member job of 64 RK4 steps (194 per wave); throughput "
              "in member-steps/s";
  const std::vector<member_config> cfgs = wave_configs(opt.seed);
  engine_options eo;
  eo.threads = 1;
  eo.async = false;

  span_log& log = r.spans;
  std::vector<double> submit_t, round_t, traced_round_t;
  std::vector<job_result> sample;  // first wave: f64, f32, Float16 member
  const std::size_t sample_idx[] = {0, 96, 192};
  int rounds_per_wave = 0;
  std::size_t tile = 0;

  // One wave on a fresh engine: submit, drain, verify. A fresh engine
  // per wave keeps memory flat however many waves a run holds.
  auto wave = [&](bool trace, bool first, std::vector<double>& rounds) {
    engine e(eo);
    std::vector<job_id> ids;
    for (const auto& cfg : cfgs) {
      const int id = trace ? log.open("ens.submit") : -1;
      const double t0 = now_s();
      const submit_ticket tk = e.submit(cfg);
      submit_t.push_back(now_s() - t0);
      log.close(id);
      ids.push_back(tk.id);
    }
    tile = e.tile_members_for(cfgs[0]);
    if (first) r.setup_s = now_s();
    int n = 0;
    while (e.active_members() > 0) {
      const int id = trace ? log.open("ens.round") : -1;
      const double t0 = now_s();
      e.drive(1);
      rounds.push_back(now_s() - t0);
      log.close(id);
      ++n;
    }
    rounds_per_wave = n;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto st = e.poll(ids[i]);
      const job_result* res = e.result(ids[i]);
      const bool ok = st && st->state == job_state::done &&
                      st->steps_done == cfgs[i].steps && res != nullptr &&
                      res->steps_done == cfgs[i].steps;
      r.failed += ok ? 0 : 1;
      ++r.attempted;
    }
    if (first) {
      for (const std::size_t i : sample_idx) {
        const job_result* res = e.result(ids[i]);
        sample.push_back(res != nullptr ? *res : job_result{});
      }
    }
  };

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  double end = now_s() + untraced_s;
  bool first = true;
  do {
    wave(false, first, round_t);
    first = false;
  } while (now_s() < end);
  const double steps_per_round =
      static_cast<double>(cfgs.size()) * wave_steps / rounds_per_wave;
  r.throughput = steps_per_round / fastest_tenth_mean(round_t);
  r.peak_rss = peak_rss_mib();

  if (opt.trace) {
    const double w0 = now_s();
    end = w0 + opt.seconds / 2;
    do {
      wave(true, false, traced_round_t);
    } while (now_s() < end);
    r.window_s = now_s() - w0;
    r.untraced_throughput = r.throughput;
    r.throughput = steps_per_round / fastest_tenth_mean(traced_round_t);
    r.table = {{"ens.round (drive(1))", log.total("ens.round"),
                log.count("ens.round")},
               {"ens.submit", log.total("ens.submit"),
                log.count("ens.submit")}};
    r.layers["ens.round_s"] = fastest_tenth_mean(traced_round_t);
    r.layers["ens.submit_s"] = fastest_tenth_mean(submit_t);
    r.layers["ens.rounds"] = rounds_per_wave;
    r.layers["ens.tile_members"] = static_cast<double>(tile);
    r.layers["kernels.rk4_batched_s"] = rk4_batched_seconds(tile);
  }

  r.checks.push_back(checks::equal_count(
      "ensemble: jobs done with steps_done == steps", r.attempted - r.failed,
      r.attempted));
  for (std::size_t k = 0; k < sample.size(); ++k) {
    oracle_check(r, "ensemble: member " + std::to_string(sample_idx[k]),
                 cfgs[sample_idx[k]], sample[k]);
  }
  return r;
}

result run_ensemble_probe(const options& opt) {
  result r;
  r.op_name = "one 4-step 32x16 probe job, submit to done, behind 32 "
              "running members; throughput in probes/s";
  engine_options eo;
  eo.threads = 1;
  eo.async = true;
  std::vector<member_config> background;
  for (std::uint64_t i = 0; i < background_members; ++i) {
    background.push_back(member(personality::float64, 32, 16,
                                mix_seed(opt.seed, 3000 + i), 1000000));
  }
  const member_config probe =
      member(personality::float64, 32, 16, mix_seed(opt.seed, 5000),
             probe_steps);

  span_log& log = r.spans;
  std::vector<double> latency, traced_latency, submit_t, wait_t;
  bool first = true;
  // The first session's first probe and first background member, kept
  // for the standalone-model checks after the timed phase.
  std::optional<job_result> first_probe, first_background;

  // One session: a fresh engine, its background members, a fixed run
  // of probes, then cancel and verify. The engine keeps every job's
  // record for its lifetime, so sessions keep memory flat however many
  // probes a run holds.
  auto session = [&](bool trace, std::vector<double>& out) {
    engine e(eo);
    std::vector<job_id> background_ids;
    for (const auto& cfg : background) {
      background_ids.push_back(e.submit(cfg).id);
    }
    if (first) r.setup_s = now_s();
    std::vector<job_id> probes;
    for (int k = 0; k < probes_per_session; ++k) {
      const int top = trace ? log.open("ens.probe") : -1;
      const double t0 = now_s();
      const int s = trace ? log.open("ens.probe_submit", top) : -1;
      const submit_ticket tk = e.submit(probe);
      const double t1 = now_s();
      log.close(s);
      const int w = trace ? log.open("ens.probe_wait", top) : -1;
      if (tk.ok()) e.wait(tk.id);
      const double t2 = now_s();
      log.close(w);
      log.close(top);
      out.push_back(t2 - t0);
      if (trace) {
        submit_t.push_back(t1 - t0);
        wait_t.push_back(t2 - t1);
      }
      probes.push_back(tk.id);
    }
    for (const job_id id : background_ids) e.cancel(id);
    e.wait_all();
    for (const job_id id : probes) {
      const auto st = e.poll(id);
      const bool ok = st && st->state == job_state::done &&
                      st->steps_done == probe_steps;
      r.failed += ok ? 0 : 1;
      ++r.attempted;
    }
    if (!first) return;
    first = false;
    if (const job_result* p0 = e.result(probes.front())) first_probe = *p0;
    if (const job_result* bg = e.result(background_ids.front())) {
      first_background = *bg;
    }
  };

  double end = now_s() + (opt.trace ? opt.seconds / 2 : opt.seconds);
  do {
    session(false, latency);
  } while (now_s() < end);
  r.throughput = 1.0 / fastest_tenth_mean(latency);
  r.peak_rss = peak_rss_mib();
  if (opt.trace) {
    const double t0 = now_s();
    end = t0 + opt.seconds / 2;
    do {
      session(true, traced_latency);
    } while (now_s() < end);
    r.window_s = now_s() - t0;
    r.untraced_throughput = r.throughput;
    r.throughput = 1.0 / fastest_tenth_mean(traced_latency);
    r.table = {{"ens.probe_submit", log.total("ens.probe_submit"),
                log.count("ens.probe_submit")},
               {"ens.probe_wait", log.total("ens.probe_wait"),
                log.count("ens.probe_wait")}};
    r.layers["ens.probe_submit_s"] = fastest_tenth_mean(submit_t);
    r.layers["ens.probe_wait_s"] = fastest_tenth_mean(wait_t);
  }
  r.checks.push_back(checks::equal_count(
      "ens_probe: probes done with steps_done == 4", r.attempted - r.failed,
      r.attempted));
  if (!first_probe || !first_background) {
    r.checks.push_back({"ens_probe: results present", false, "missing"});
    return r;
  }
  oracle_check(r, "ens_probe: first probe", probe, *first_probe);
  r.checks.push_back(checks::at_least(
      "ens_probe: background member stepped while probed",
      first_background->steps_done, 1));
  oracle_check(r, "ens_probe: cancelled background member",
               background.front(), *first_background);
  return r;
}

}  // namespace perfbench
