// Closed-loop benchmark driver for minifock.
//
//   perfbench_driver --family=water|alkane --size=N --basis=NAME
//       --des-size=N --seed=S --seconds=T --trace=0|1 --e-ref=E --t-int=T
//       --report=PATH [--repeats=1,1,1,1,1,1,1] [--spans=PATH]
//
// One process, one caller: every operation starts after the previous one
// has finished. --seconds covers the whole run: the driver sets the
// workload up once (timed), then runs rounds until `seconds` have passed.
// A round runs these operations round-robin, each as often as --repeats
// says (in this order):
//   1. fock_serial at a fixed seeded density (the first one of a round is
//      the round's oracle F);
//   2. a GtFockBuilder build at p = ranks;
//   3. a NwchemFockBuilder build at p = ranks (atom-ordered shells);
//   4. a GtFockBuilder build at p = ranks - 1 plus one spare, with a seeded
//      FaultPlan that kills rank 1 at its 50th compute kill point;
//   5. an SCF run (HartreeFock over GTFock, DIIS + diagonalization);
//   6. simulate_gtfock and simulate_nwchem over the paper's core counts for
//      the same molecule family at --des-size in cc-pVDZ;
//   7. the workload's set-up again, timed and dropped: spread over the run,
//      the set-up samples see the same machine as the operations.
// ranks is one less than the core count, and at most 4: rank threads plus
// the recovery build's spare never outnumber the cores, and one core stays
// free for the rest of the machine, so that one busy core does not stall
// every rank of a build.
// Builds are checked against the round's serial F at 1e-10, SCF energies
// against the stored reference at 1e-8, and DES predictions against the
// first sweep of the run, bit for bit. Misses count as failed operations.
//
// The seed only moves the molecules rigidly (rotation plus translation), so
// the reference energy holds for every seed while the shell reordering, the
// task partition and the seeded density change.
//
// With --trace=1 the driver also records obs spans around its calls into
// each layer (written to --spans as a Chrome trace at the end), replays the
// screened unique quartets through the batched ERI path, the pair path and
// the Fock digest, and reports the per-layer numbers. Every other round of
// a traced run records no spans; the ratio of the two is the tracing
// overhead.
//
// The result is a JSON report at --report; perfbench/run.py turns it into
// the benchmark's output.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline/nwchem_fock.h"
#include "baseline/nwchem_sim.h"
#include "chem/basis_set.h"
#include "chem/molecule_builders.h"
#include "core/fock_builder.h"
#include "core/fock_serial.h"
#include "core/fock_task.h"
#include "core/fock_update.h"
#include "core/gtfock_sim.h"
#include "core/shell_reorder.h"
#include "core/symmetry.h"
#include "core/task_cost.h"
#include "eri/eri_batch.h"
#include "eri/eri_engine.h"
#include "eri/one_electron.h"
#include "eri/screening.h"
#include "eri/shell_pair.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scf/hf.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace mf;
using Clock = std::chrono::steady_clock;

constexpr double kFockTolerance = 1e-10;
constexpr double kEnergyTolerance = 1e-8;
constexpr std::uint64_t kKillAfter = 49;  // rank 1 dies at its 50th task
constexpr std::size_t kMaxRanks = 4;
constexpr const char* kDesBasis = "cc-pvdz";  // the paper's basis
// Core counts of the paper's scaling tables (12 cores per node).
constexpr std::size_t kDesCores[] = {12, 48, 108, 192, 432, 768, 1728, 3888};

// ---------------------------------------------------------------- tracing

/// True while the driver records spans (the traced rounds of a traced run).
bool g_recording = false;

/// A span around one of the driver's calls into a layer, recorded in the
/// obs trace while g_recording is set. The obs gate is open only while the
/// guard starts: the guard still emits its span at scope exit, but the
/// library's own spans inside the call stay off, since every build's rank
/// threads would each register a new trace buffer.
obs::SpanGuard layer_span(const char* name) {
  if (!g_recording) return {};
  obs::set_tracing_enabled(true);
  obs::SpanGuard span("perfbench", name);
  obs::set_tracing_enabled(false);
  return span;
}

/// For every recorded span called `parent`, its duration and the summed
/// duration of each of `children` recorded inside it, in seconds, by name
/// (nesting follows from the timestamps; the driver's spans are all on one
/// thread).
std::vector<std::map<std::string, double>> child_totals(
    const std::vector<obs::TraceEvent>& events, std::string_view parent,
    const std::vector<std::string_view>& children) {
  std::vector<std::map<std::string, double>> out;
  for (const obs::TraceEvent& p : events) {
    if (p.dur_ns < 0 || parent != p.name) continue;
    std::map<std::string, double>& sums = out.emplace_back();
    for (std::string_view child : children) sums[std::string(child)] = 0.0;
    sums[std::string(parent)] = static_cast<double>(p.dur_ns) * 1e-9;
    for (const obs::TraceEvent& c : events) {
      const auto it = sums.find(c.name);
      if (it == sums.end() || &c == &p || c.dur_ns < 0 || c.ts_ns < p.ts_ns ||
          c.ts_ns + c.dur_ns > p.ts_ns + p.dur_ns) {
        continue;
      }
      it->second += static_cast<double>(c.dur_ns) * 1e-9;
    }
  }
  return out;
}

// ------------------------------------------------------------------ inputs

struct Args {
  std::string family, basis;
  std::size_t size = 0, des_size = 0;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t ranks = kMaxRanks;
  double e_ref = 0.0;
  double t_int = 0.0;
  std::vector<std::size_t> repeats;  // per kOps entry
  std::string report, spans;
};

std::vector<std::size_t> parse_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoul(item));
  return out;
}

Molecule family_molecule(const std::string& family, std::size_t n) {
  if (family == "water") return water_cluster(n, 42);
  if (family == "alkane") return linear_alkane(n);
  throw std::invalid_argument("unknown molecule family: " + family);
}

/// The seeded input: `mol` rotated by a uniform random rotation and
/// shifted by up to 4 bohr per axis. Energies are invariant under it.
Molecule rigid_motion(const Molecule& mol, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  constexpr double kTwoPi = 6.283185307179586;
  const double u1 = rng.uniform(), u2 = rng.uniform(), u3 = rng.uniform();
  const double a = std::sqrt(1.0 - u1) * std::sin(kTwoPi * u2);
  const double b = std::sqrt(1.0 - u1) * std::cos(kTwoPi * u2);
  const double c = std::sqrt(u1) * std::sin(kTwoPi * u3);
  const double w = std::sqrt(u1) * std::cos(kTwoPi * u3);
  const double r[3][3] = {
      {1 - 2 * (b * b + c * c), 2 * (a * b - c * w), 2 * (a * c + b * w)},
      {2 * (a * b + c * w), 1 - 2 * (a * a + c * c), 2 * (b * c - a * w)},
      {2 * (a * c - b * w), 2 * (b * c + a * w), 1 - 2 * (a * a + b * b)}};
  const Vec3 shift{rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4)};
  Molecule out;
  for (const Atom& at : mol.atoms()) {
    const Vec3& p = at.position;
    out.add_atom(at.z, Vec3{r[0][0] * p.x + r[0][1] * p.y + r[0][2] * p.z,
                            r[1][0] * p.x + r[1][1] * p.y + r[1][2] * p.z,
                            r[2][0] * p.x + r[2][1] * p.y + r[2][2] * p.z} +
                           shift);
  }
  return out;
}

/// Seeded symmetric density with entries in [-0.1, 0.1]: the fixed input
/// of every standalone Fock build (their cost does not depend on D).
Matrix seeded_density(std::size_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0xd3a5e7ULL);
  Matrix d(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      d(i, j) = d(j, i) = rng.uniform(-0.1, 0.1);
    }
  }
  return d;
}

/// Function index map of a shell reordering: new function i is old
/// function map[i].
std::vector<std::size_t> function_map(const Basis& atom_basis,
                                      const Basis& basis,
                                      const std::vector<std::size_t>& perm) {
  std::vector<std::size_t> map(basis.num_functions());
  for (std::size_t s = 0; s < perm.size(); ++s) {
    for (std::size_t k = 0; k < basis.shell_size(s); ++k) {
      map[basis.shell_offset(s) + k] = atom_basis.shell_offset(perm[s]) + k;
    }
  }
  return map;
}

Matrix to_atom_order(const Matrix& m, const std::vector<std::size_t>& map) {
  Matrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out(map[i], map[j]) = m(i, j);
  }
  return out;
}

// ------------------------------------------------------------------- setup

/// Everything the timed operations need. Built several times; the spans
/// inside are the setup layers.
struct Setup {
  std::unique_ptr<Basis> atom_basis, basis;
  std::unique_ptr<HartreeFock> hf;
  std::unique_ptr<ScreeningData> atom_screening;
  std::unique_ptr<Basis> des_atom_basis, des_basis;
  std::unique_ptr<ScreeningData> des_screening, des_atom_screening;
  std::unique_ptr<TaskCostModel> des_costs;
  std::unique_ptr<NwchemTaskTable> des_table;
};

void make_basis(const Molecule& mol, const std::string& name,
                std::unique_ptr<Basis>& atom_basis,
                std::unique_ptr<Basis>& basis) {
  {
    const obs::SpanGuard span = layer_span("setup.basis");
    atom_basis = std::make_unique<Basis>(mol, BasisLibrary::builtin(name));
  }
  const obs::SpanGuard span = layer_span("setup.reorder");
  basis = std::make_unique<Basis>(apply_reordering(*atom_basis, {}));
}

std::unique_ptr<ScreeningData> screen(const Basis& basis) {
  const obs::SpanGuard span = layer_span("eri.screening");
  return std::make_unique<ScreeningData>(basis, ScreeningOptions{});
}

Setup make_setup(const Args& args, const Molecule& mol,
                 const Molecule& des_mol) {
  const obs::SpanGuard span = layer_span("setup");
  Setup st;
  make_basis(mol, args.basis, st.atom_basis, st.basis);
  {
    const obs::SpanGuard init = layer_span("scf.init");
    st.hf = std::make_unique<HartreeFock>(*st.basis);
    GtFockOptions g;
    g.nprocs = args.ranks;
    st.hf->use_gtfock(g);
  }
  st.atom_screening = screen(*st.atom_basis);
  make_basis(des_mol, kDesBasis, st.des_atom_basis, st.des_basis);
  st.des_screening = screen(*st.des_basis);
  st.des_atom_screening = screen(*st.des_atom_basis);
  {
    const obs::SpanGuard costs = layer_span("setup.task_cost");
    st.des_costs = std::make_unique<TaskCostModel>(*st.des_basis,
                                                   *st.des_screening);
  }
  const obs::SpanGuard table = layer_span("setup.nwchem_table");
  st.des_table = std::make_unique<NwchemTaskTable>(*st.des_atom_basis,
                                                   *st.des_atom_screening);
  return st;
}

const std::vector<std::string_view> kSetupParts = {
    "setup.basis",   "setup.reorder",   "scf.init",
    "eri.screening", "setup.task_cost", "setup.nwchem_table"};

// ----------------------------------------------------------------- samples

struct Results {
  std::map<std::string, std::vector<double>> e2e;
  std::map<std::string, std::vector<double>> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Runs `body` as one operation. It failed when it threw or reported a
  /// miss through fail(); either way it counts once.
  template <typename Body>
  void operation(const std::string& what, Body&& body) {
    ++attempted;
    const std::size_t misses = failures.size();
    try {
      body();
    } catch (const std::exception& e) {
      fail(what + " threw: " + e.what());
    }
    if (failures.size() > misses) ++failed;
  }
  void fail(const std::string& what) {
    failures.push_back(what);
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  void layer_add(const std::string& name, double v) { layer[name].push_back(v); }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------- layer reads

void check_fock(Results& res, const char* what, const Matrix& f,
                const Matrix& ref) {
  const double err = max_abs_diff(f, ref);
  if (!(err <= kFockTolerance)) {
    res.fail(std::string(what) + ": max|F - F_serial| = " + std::to_string(err));
  }
}


void record_gtfock_layers(Results& res, const GtFockResult& r, double wall) {
  double prefetch = 0.0, flush = 0.0, idle = 0.0, wait_ns = 0.0;
  double stolen = 0.0, probes = 0.0, atomics = 0.0, calls = 0.0, bytes = 0.0;
  const double tmax = r.max_total_seconds();
  for (const GtFockRankStats& s : r.ranks) {
    prefetch += s.prefetch_seconds;
    flush += s.flush_seconds;
    idle += tmax - s.total_seconds;
    stolen += static_cast<double>(s.tasks_stolen);
    probes += static_cast<double>(s.steal_probes);
    atomics += static_cast<double>(s.queue_atomic_ops);
    calls += static_cast<double>(s.comm.total_calls());
    bytes += static_cast<double>(s.comm.total_bytes());
    wait_ns += static_cast<double>(s.comm.wait_ns);
  }
  const double p = static_cast<double>(r.ranks.size());
  res.layer_add("gtfock.compute_s", r.avg_compute_seconds());
  res.layer_add("gtfock.prefetch_s", prefetch / p);
  res.layer_add("gtfock.flush_s", flush / p);
  res.layer_add("gtfock.overhead_s", r.avg_overhead_seconds());
  res.layer_add("gtfock.idle_s", idle / p);
  res.layer_add("gtfock.load_balance", r.load_balance());
  res.layer_add("gtfock.tasks_stolen", stolen);
  res.layer_add("gtfock.steal_probes", probes);
  res.layer_add("gtfock.steal_yield", probes > 0 ? stolen / probes : 0.0);
  res.layer_add("gtfock.steal_victims", r.avg_steal_victims());
  res.layer_add("gtfock.queue_atomic_ops", atomics);
  res.layer_add("gtfock.launch_s", wall - tmax);
  res.layer_add("gtfock.comm_calls", calls);
  res.layer_add("gtfock.comm_bytes", bytes);
  // wait_ns is only timed while the library's metrics are on.
  if (obs::metrics_enabled()) res.layer_add("gtfock.comm_wait_s", wait_ns * 1e-9);
}

void record_nwchem_layers(Results& res, const NwchemResult& r) {
  double get_task = 0.0, calls = 0.0, bytes = 0.0, wait_ns = 0.0;
  for (const NwchemRankStats& s : r.ranks) {
    get_task += static_cast<double>(s.get_task_calls);
    calls += static_cast<double>(s.comm.total_calls());
    bytes += static_cast<double>(s.comm.total_bytes());
    wait_ns += static_cast<double>(s.comm.wait_ns);
  }
  res.layer_add("nwchem.compute_s", r.avg_compute_seconds());
  res.layer_add("nwchem.overhead_s", r.avg_overhead_seconds());
  res.layer_add("nwchem.load_balance", r.load_balance());
  res.layer_add("nwchem.get_task_calls", get_task);
  res.layer_add("nwchem.comm_calls", calls);
  res.layer_add("nwchem.comm_bytes", bytes);
  // wait_ns is only timed while the library's metrics are on.
  if (obs::metrics_enabled()) res.layer_add("nwchem.comm_wait_s", wait_ns * 1e-9);
}

// ------------------------------------------------------------- ERI replays

/// Single-threaded replay of every screened unique quartet of the basis,
/// in fock_serial's task order, through run_task_batched.
template <typename Apply>
void replay_batched(const Basis& basis, const ScreeningData& screening,
                    EriEngine& engine, Apply&& apply) {
  const ShellPairList* pairs = &screening.pairs();
  const double thresh = EriEngineOptions{}.primitive_threshold;
  PairResolver bra_pairs(basis, pairs, thresh);
  KetBatcher batcher;
  for (std::size_t m = 0; m < basis.num_shells(); ++m) {
    for (std::size_t n = 0; n < basis.num_shells(); ++n) {
      if (!symmetry_check(m, n)) continue;
      run_task_batched(basis, screening, pairs, thresh, m, n, bra_pairs,
                       batcher, engine, apply);
    }
  }
}

/// The same quartets, one EriEngine::compute(bra, ket) call each (the pair
/// path the NWChem builder uses). Returns the number of quartets.
std::uint64_t replay_pair(const Basis& basis, const ScreeningData& screening,
                          EriEngine& engine, double& checksum) {
  const ShellPairList& pairs = screening.pairs();
  std::uint64_t quartets = 0;
  for (std::size_t m = 0; m < basis.num_shells(); ++m) {
    const auto& phi_m = screening.significant_set(m);
    for (std::size_t n = 0; n < basis.num_shells(); ++n) {
      if (!symmetry_check(m, n)) continue;
      const auto& phi_n = screening.significant_set(n);
      for (std::size_t kp = 0; kp < phi_m.size(); ++kp) {
        const std::size_t p = phi_m[kp];
        if (!symmetry_check(m, p)) continue;
        const double pv = screening.pair_value(m, p);
        for (std::size_t kq = 0; kq < phi_n.size(); ++kq) {
          const std::size_t q = phi_n[kq];
          if (!unique_quartet(m, p, n, q)) continue;
          if (pv * screening.pair_value(n, q) < screening.tau()) continue;
          checksum += engine.compute(pairs.pair_at(m, kp), pairs.pair_at(n, kq))[0];
          ++quartets;
        }
      }
    }
  }
  return quartets;
}

/// Seconds that `calls` empty timer reads cost when each is timed the way
/// the digest replay times apply_quartet_update.
double timer_cost(std::uint64_t calls) {
  Clock::duration sum{};
  for (std::uint64_t i = 0; i < calls; ++i) {
    const Clock::time_point t0 = Clock::now();
    sum += Clock::now() - t0;
  }
  return std::chrono::duration<double>(sum).count();
}

/// Replays the workload's quartets kReplayReps times, interleaving the
/// one-electron integrals, the batched ERI path with a no-op apply, the same
/// path with the Fock digest, and the pair path; the layer times are the
/// medians. The digest is timed around each apply_quartet_update call (the
/// difference of the two batched replays is smaller than their noise), less
/// the cost of as many empty timer reads, so core.digest_s is derived.
void eri_layers(Results& res, const Setup& st, const Matrix& d,
                const Matrix& f_ref) {
  constexpr std::size_t kReplayReps = 3;
  const Basis& basis = *st.basis;
  const ScreeningData& screening = st.hf->screening();
  double checksum = 0.0;
  std::vector<double> batch_s;
  double quartets = 0.0, integrals = 0.0;
  for (std::size_t rep = 0; rep < kReplayReps; ++rep) {
    {
      const obs::SpanGuard span = layer_span("eri.one_electron");
      const WallTimer timer;
      const Matrix h = core_hamiltonian(basis);
      const Matrix ov = overlap_matrix(basis);
      res.layer_add("eri.one_electron_s", timer.seconds());
      checksum += h(0, 0) + ov(0, 0);
    }
    EriEngine batch_engine;
    {
      const obs::SpanGuard span = layer_span("eri.batch");
      const WallTimer timer;
      replay_batched(basis, screening, batch_engine,
                     [&](std::size_t, std::size_t, std::size_t, std::size_t,
                         const double* eri, std::size_t) { checksum += eri[0]; });
      batch_s.push_back(timer.seconds());
    }
    quartets = static_cast<double>(batch_engine.shell_quartets_computed());
    integrals = static_cast<double>(batch_engine.integrals_computed());

    res.operation("digest replay", [&] {
      Matrix w(basis.num_functions(), basis.num_functions());
      EriEngine engine;
      DenseFockContext ctx{d, w};
      Clock::duration digest{};
      std::uint64_t calls = 0;
      {
        const obs::SpanGuard span = layer_span("core.digest_replay");
        replay_batched(basis, screening, engine,
                       [&](std::size_t m, std::size_t p, std::size_t n,
                           std::size_t q, const double* eri, std::size_t size) {
                         const Clock::time_point t0 = Clock::now();
                         apply_quartet_update(basis, m, p, n, q, eri, size,
                                              quartet_degeneracy(m, p, n, q),
                                              ctx);
                         digest += Clock::now() - t0;
                         ++calls;
                       });
      }
      res.layer_add("core.digest_s",
                    std::chrono::duration<double>(digest).count() -
                        timer_cost(calls));
      check_fock(res, "digest replay", finalize_fock(st.hf->core(), w), f_ref);
    });

    res.operation("pair replay", [&] {
      EriEngine pair_engine;
      const obs::SpanGuard span = layer_span("eri.pair");
      const WallTimer timer;
      const std::uint64_t pair_quartets =
          replay_pair(basis, screening, pair_engine, checksum);
      res.layer_add("eri.pair_s", timer.seconds());
      if (static_cast<double>(pair_quartets) != quartets) {
        res.fail("pair replay saw " + std::to_string(pair_quartets) +
                 " quartets, batched replay " + std::to_string(quartets));
      }
      if (!std::isfinite(checksum)) res.fail("ERI replay checksum is not finite");
    });
  }
  const double batch = median(batch_s);
  res.layer["eri.batch_s"] = batch_s;
  res.layer["eri.quartets"] = {quartets};
  res.layer["eri.integrals"] = {integrals};
  res.layer["eri.t_quartet_us"] = {batch / quartets * 1e6};
  res.layer["eri.t_int_us"] = {batch / integrals * 1e6};
}

// --------------------------------------------------------------------- DES

struct DesSweep {
  std::vector<double> predictions;  // per core count: 8 model outputs
  double gtfock_s = 0.0, nwchem_s = 0.0;
  GtFockSimResult top_gtfock;
  NwchemSimResult top_nwchem;
};

DesSweep des_sweep(const Setup& st, const Args& args) {
  DesSweep out;
  MachineParams machine;
  machine.t_int = args.t_int;
  for (std::size_t cores : kDesCores) {
    GtFockSimOptions gopts;
    gopts.total_cores = cores;
    gopts.machine = machine;
    GtFockSimResult g;
    {
      const obs::SpanGuard span = layer_span("des.gtfock_sim");
      const WallTimer timer;
      g = simulate_gtfock(*st.des_basis, *st.des_screening, *st.des_costs,
                          gopts);
      out.gtfock_s += timer.seconds();
    }
    NwchemSimOptions nopts;
    nopts.total_cores = cores;
    nopts.machine = machine;
    NwchemSimResult n;
    {
      const obs::SpanGuard span = layer_span("des.nwchem_sim");
      const WallTimer timer;
      n = simulate_nwchem(*st.des_table, nopts);
      out.nwchem_s += timer.seconds();
    }
    for (double v : {g.fock_time(), g.avg_comp_time(), g.load_balance(),
                     g.avg_steal_victims(), g.avg_comm_megabytes(),
                     g.avg_comm_calls(), n.fock_time(), n.avg_comm_calls()}) {
      out.predictions.push_back(v);
    }
    if (cores == kDesCores[std::size(kDesCores) - 1]) {
      out.top_gtfock = std::move(g);
      out.top_nwchem = std::move(n);
    }
  }
  return out;
}

std::string digest_hex(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the raw bytes
  for (double x : v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &x, sizeof(double));
    for (unsigned char b : bytes) h = (h ^ b) * 1099511628211ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// -------------------------------------------------------------------- round

struct Inputs {
  Molecule mol, des_mol;
  Matrix density, density_atom, h_atom;
  std::vector<std::size_t> fmap;
};

/// Operation times of one kind of round (traced or untraced), by metric.
using OpTimes = std::map<std::string, std::vector<double>>;

/// The operations of a round, in round-robin order; --repeats gives how
/// often each runs per round. The serial build comes first: the first one
/// of a round is the oracle F for the rest of the round.
const char* const kOps[] = {"serial", "gtfock", "nwchem", "recovery", "scf",
                            "des",    "setup"};
constexpr std::size_t kNumOps = sizeof(kOps) / sizeof(kOps[0]);

class Round {
 public:
  Round(Results& res, const Setup& st, const Inputs& in, const Args& args,
        std::vector<double>& first_predictions, OpTimes& op_times)
      : res_(res), st_(st), in_(in), args_(args),
        first_predictions_(first_predictions), op_times_(op_times) {}

  /// Runs every operation args.repeats[op] times, interleaved. A round
  /// that may be cut stops after the operation that uses up the budget.
  void run(bool may_cut, const WallTimer& budget) {
    const std::size_t most =
        *std::max_element(args_.repeats.begin(), args_.repeats.end());
    for (std::size_t i = 0; i < most; ++i) {
      for (std::size_t op = 0; op < kNumOps; ++op) {
        if (i >= args_.repeats[op]) continue;
        res_.operation(kOps[op], [&] { run_op(op); });
        if (f_ref_.rows() == 0) return;  // no oracle for this round
        if (may_cut && budget.seconds() >= args_.seconds) return;
      }
    }
  }

 private:
  void sample(const char* metric, double seconds) {
    res_.e2e[metric].push_back(seconds);
    op_times_[metric].push_back(seconds);
  }

  void run_op(std::size_t op) {
    switch (op) {
      case 0: return serial();
      case 1: return gtfock();
      case 2: return nwchem();
      case 3: return recovery();
      case 4: return scf();
      case 5: return des();
      default: return setup();
    }
  }

  void serial() {
    Matrix f;
    {
      const obs::SpanGuard span = layer_span("op.serial_build");
      const WallTimer timer;
      f = fock_serial(*st_.basis, st_.hf->screening(), in_.density,
                      st_.hf->core());
      sample("serial_build_s", timer.seconds());
    }
    if (f_ref_.rows() == 0) {
      f_ref_ = std::move(f);
      f_ref_atom_ = to_atom_order(f_ref_, in_.fmap);
    } else {
      check_fock(res_, "serial build", f, f_ref_);
    }
  }

  void gtfock() {
    GtFockOptions g;
    g.nprocs = args_.ranks;
    GtFockBuilder builder(*st_.basis, st_.hf->screening(), g);
    GtFockResult r;
    double t = 0.0;
    {
      const obs::SpanGuard span = layer_span("op.gtfock_build");
      const WallTimer timer;
      r = builder.build(in_.density, st_.hf->core());
      t = timer.seconds();
    }
    sample("fock_build_s", t);
    record_gtfock_layers(res_, r, t);
    check_fock(res_, "gtfock build", r.fock, f_ref_);
  }

  void nwchem() {
    NwchemOptions n;
    n.nprocs = args_.ranks;
    NwchemFockBuilder builder(*st_.atom_basis, *st_.atom_screening, n);
    NwchemResult r;
    {
      const obs::SpanGuard span = layer_span("op.nwchem_build");
      const WallTimer timer;
      r = builder.build(in_.density_atom, in_.h_atom);
      sample("nwchem_build_s", timer.seconds());
    }
    record_nwchem_layers(res_, r);
    check_fock(res_, "nwchem build", r.fock, f_ref_atom_);
  }

  void recovery() {
    fault::FaultPlan plan;
    plan.seed = args_.seed;
    plan.kills.push_back(
        fault::KillRule{1, fault::BuildPhase::kCompute, kKillAfter});
    GtFockOptions g;
    g.nprocs = args_.ranks - 1;
    g.spare_ranks = 1;
    GtFockBuilder builder(*st_.basis, st_.hf->screening(), g);
    GtFockResult r;
    fault::install(plan);
    try {
      const obs::SpanGuard span = layer_span("op.recovery_build");
      const WallTimer timer;
      r = builder.build(in_.density, st_.hf->core());
      sample("recovery_build_s", timer.seconds());
    } catch (...) {
      fault::clear();
      throw;
    }
    fault::clear();
    const fault::RecoveryReport& rec = r.recovery;
    res_.layer_add("fault.rank_failures", static_cast<double>(rec.rank_failures));
    res_.layer_add("fault.units_lost", static_cast<double>(rec.units_lost));
    res_.layer_add("fault.tasks_reexecuted",
                   static_cast<double>(rec.tasks_reexecuted));
    res_.layer_add("fault.recovery_s",
                   static_cast<double>(rec.recovery_ns) * 1e-9);
    if (rec.rank_failures != 1 || rec.spare_recoveries != 1) {
      res_.fail("recovery build: expected one death adopted by the spare, got " +
                std::to_string(rec.rank_failures) + " deaths, " +
                std::to_string(rec.spare_recoveries) + " spare recoveries");
    }
    check_fock(res_, "recovery build", r.fock, f_ref_);
  }

  void scf() {
    ScfResult r;
    double t = 0.0;
    {
      const obs::SpanGuard span = layer_span("op.scf");
      const WallTimer timer;
      r = st_.hf->run();
      t = timer.seconds();
    }
    sample("scf_s", t);
    double fock = 0.0, density = 0.0;
    for (const ScfIterationInfo& it : r.history) {
      fock += it.fock_seconds;
      density += it.density_seconds;
    }
    res_.layer_add("scf.iterations", static_cast<double>(r.iterations));
    res_.layer_add("scf.fock_s", fock);
    res_.layer_add("scf.density_s", density);
    res_.layer_add("scf.other_s", t - fock - density);
    if (!r.converged || !(std::abs(r.energy - args_.e_ref) <= kEnergyTolerance)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "scf run: converged=%d energy %.10f vs reference %.10f",
                    r.converged ? 1 : 0, r.energy, args_.e_ref);
      res_.fail(buf);
    }
  }

  void des() {
    DesSweep sw;
    {
      const obs::SpanGuard span = layer_span("op.des_sweep");
      const WallTimer timer;
      sw = des_sweep(st_, args_);
      sample("des_sweep_s", timer.seconds());
    }
    res_.layer_add("des.gtfock_sim_s", sw.gtfock_s);
    res_.layer_add("des.nwchem_sim_s", sw.nwchem_s);
    res_.layer_add("des.gtfock_t_fock_s", sw.top_gtfock.fock_time());
    res_.layer_add("des.nwchem_t_fock_s", sw.top_nwchem.fock_time());
    res_.layer_add("des.gtfock_comm_mb", sw.top_gtfock.avg_comm_megabytes());
    res_.layer_add("des.gtfock_comm_calls", sw.top_gtfock.avg_comm_calls());
    res_.layer_add("des.load_balance", sw.top_gtfock.load_balance());
    res_.layer_add("des.steal_victims", sw.top_gtfock.avg_steal_victims());
    if (first_predictions_.empty()) {
      first_predictions_ = sw.predictions;
    } else if (sw.predictions.size() != first_predictions_.size() ||
               std::memcmp(sw.predictions.data(), first_predictions_.data(),
                           sw.predictions.size() * sizeof(double)) != 0) {
      res_.fail("des sweep: predictions differ from the first sweep");
    }
  }

  void setup() {
    const WallTimer timer;
    const Setup fresh = make_setup(args_, in_.mol, in_.des_mol);
    sample("setup_s", timer.seconds());  // before `fresh` is dropped
  }

  Results& res_;
  const Setup& st_;
  const Inputs& in_;
  const Args& args_;
  std::vector<double>& first_predictions_;
  OpTimes& op_times_;
  Matrix f_ref_, f_ref_atom_;
};

// ------------------------------------------------------------------ report

void json_samples(std::ostream& out,
                  const std::map<std::string, std::vector<double>>& m) {
  out << "{";
  bool first = true;
  for (const auto& [name, values] : m) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
      out << (i ? ", " : "") << buf;
    }
    out << "]";
    first = false;
  }
  out << "\n  }";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

Args parse_args(int argc, char** argv) {
  const CliArgs cli(argc, argv,
                    {"family", "size", "basis", "des-size", "seed", "seconds",
                     "trace", "e-ref", "t-int", "repeats", "report", "spans"});
  Args a;
  a.family = cli.get("family");
  a.size = static_cast<std::size_t>(cli.get_int("size", 0));
  a.basis = cli.get("basis");
  a.des_size = static_cast<std::size_t>(cli.get_int("des-size", 0));
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
  a.seconds = cli.get_double("seconds", 10.0);
  a.trace = cli.get_int("trace", 0) != 0;
  a.e_ref = cli.get_double("e-ref", 0.0);
  a.t_int = cli.get_double("t-int", 0.0);
  a.repeats = parse_list(cli.get("repeats", "1,1,1,1,1,1,1"));
  a.report = cli.get("report");
  a.spans = cli.get("spans");
  if (a.size == 0 || a.des_size == 0 || a.report.empty() || a.t_int <= 0.0 ||
      a.e_ref == 0.0 ||
      a.repeats.size() != kNumOps || a.repeats[0] == 0) {
    throw std::invalid_argument(
        "need --size, --des-size, --report, --t-int, --e-ref and "
        "seven --repeats with the serial count at least 1");
  }
  const std::size_t hw = std::max(3u, std::thread::hardware_concurrency());
  a.ranks = std::min(kMaxRanks, hw - 1);
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Results res;

  Inputs in;
  in.mol = rigid_motion(family_molecule(args.family, args.size), args.seed);
  in.des_mol =
      rigid_motion(family_molecule(args.family, args.des_size), args.seed);

  // --seconds covers the first set-up and the rounds.
  const WallTimer budget;
  g_recording = args.trace;
  Setup st;
  {
    const WallTimer timer;
    st = make_setup(args, in.mol, in.des_mol);
    res.e2e["setup_s"].push_back(timer.seconds());
  }
  res.layer["eri.sig_pairs"] = {
      static_cast<double>(st.hf->screening().num_significant_pairs())};

  // Inputs and oracle bookkeeping; not part of setup.
  in.density = seeded_density(st.basis->num_functions(), args.seed);
  in.fmap = function_map(*st.atom_basis, *st.basis,
                         reorder_permutation(*st.atom_basis, {}));
  in.density_atom = to_atom_order(in.density, in.fmap);
  in.h_atom = to_atom_order(st.hf->core(), in.fmap);

  std::vector<double> first_predictions;
  OpTimes traced_ops, untraced_ops;
  if (args.trace) {
    const Matrix f_ref =
        fock_serial(*st.basis, st.hf->screening(), in.density, st.hf->core());
    eri_layers(res, st, in.density, f_ref);
  }
  const std::size_t min_rounds = args.trace ? 2 : 1;
  for (std::size_t round = 0;
       round < min_rounds || budget.seconds() < args.seconds; ++round) {
    // Rounds after the minimum end when the budget does, so a run lasts
    // --seconds plus at most one operation.
    // A traced run records spans, and turns on the library's own metrics
    // (which time each one-sided op into CommStats::wait_ns), on even rounds
    // only; the odd rounds give the untraced times the tracing overhead is
    // measured against.
    g_recording = args.trace && round % 2 == 0;
    obs::set_metrics_enabled(g_recording);
    Round(res, st, in, args, first_predictions,
          g_recording ? traced_ops : untraced_ops)
        .run(round >= min_rounds, budget);
  }
  g_recording = false;
  obs::set_metrics_enabled(false);
  if (args.trace) {
    double traced = 0.0, untraced = 0.0;
    for (const auto& [name, times] : traced_ops) {
      const auto it = untraced_ops.find(name);
      if (it == untraced_ops.end()) continue;
      traced += median(times);
      untraced += median(it->second);
    }
    res.layer["trace.overhead_ratio"] = {untraced > 0 ? traced / untraced : 1.0};
    const double wait_s = median(res.layer["gtfock.comm_wait_s"]) +
                          median(res.layer["nwchem.comm_wait_s"]);
    const double calls = median(res.layer["gtfock.comm_calls"]) +
                         median(res.layer["nwchem.comm_calls"]);
    res.layer["ga.wait_per_call_us"] = {calls > 0 ? wait_s / calls * 1e6 : 0.0};
    for (const auto& setup : child_totals(obs::trace_snapshot(), "setup",
                                          kSetupParts)) {
      double parts = 0.0;
      for (std::string_view part : kSetupParts) {
        const double t = setup.at(std::string(part));
        parts += t;
        res.layer_add(std::string(part) + "_s", t);
      }
      res.layer_add("setup.other_s", setup.at("setup") - parts);
    }
    if (!args.spans.empty() && !obs::write_chrome_trace(args.spans)) {
      throw std::runtime_error("cannot write " + args.spans);
    }
  }

  std::ofstream out(args.report);
  out << "{\n  \"attempted\": " << res.attempted
      << ",\n  \"failed\": " << res.failed << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < res.failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(res.failures[i]);
  }
  out << "],\n  \"measured_s\": " << budget.seconds()
      << ",\n  \"des_digest\": \"" << digest_hex(first_predictions)
      << "\",\n  \"build\": {\"compiler\": " << json_string(MF_BENCH_COMPILER)
      << ", \"compiler_version\": " << json_string(__VERSION__)
      << ", \"build_type\": " << json_string(MF_BENCH_BUILD_TYPE)
      << ", \"flags\": " << json_string(MF_BENCH_CXX_FLAGS)
      << "},\n  \"threads\": {\"ranks\": " << args.ranks
      << ", \"recovery_ranks\": " << args.ranks - 1
      << ", \"recovery_spares\": 1, \"max_threads\": " << args.ranks
      << "},\n  \"inputs\": {\"functions\": " << st.basis->num_functions()
      << ", \"shells\": " << st.basis->num_shells()
      << ", \"des_functions\": " << st.des_basis->num_functions()
      << ", \"des_shells\": " << st.des_basis->num_shells()
      << "},\n  \"e2e\": ";
  json_samples(out, res.e2e);
  out << ",\n  \"layer\": ";
  json_samples(out, args.trace ? res.layer
                               : std::map<std::string, std::vector<double>>{});
  out << "\n}\n";
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
