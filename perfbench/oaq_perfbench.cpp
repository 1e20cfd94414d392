// oaq_perfbench — end-to-end and per-layer benchmark of the OAQ library.
//
// Runs one named workload through the library entry points `oaqctl` uses
// (simulate_qos, run_campaign) with the configurations its `simulate` and
// `campaign` subcommands build, checks the outputs, and prints every
// metric by name with its unit. perfbench/run.py builds and drives it;
// perfbench/README.md defines the workloads and the metrics.
//
//   oaq_perfbench timed  --workload W --seed N --seconds S [--pinned HEX]
//   oaq_perfbench layers --workload W --seed N --seconds S
//   oaq_perfbench once   --workload W --seed N
//
// `timed` measures the end-to-end metrics with every observer off, except
// peak_rss_mb, which run.py takes from fresh `once` processes (one call
// each, nothing else in the process).
// `layers` is the separate traced run: it reports per-layer metrics read
// from the library's public observers (MetricsRegistry, SpanProfiler,
// ReduceProfile, TraceCollector) and from this file's own timers around
// public layer calls. Nothing inside the library is instrumented for it.
// The last stdout line of both is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analytic/qos_model.hpp"
#include "common/parallel.hpp"
#include "fault/invariants.hpp"
#include "fault/plan.hpp"
#include "fault/process.hpp"
#include "oaq/batch_episode.hpp"
#include "oaq/campaign.hpp"
#include "oaq/montecarlo.hpp"
#include "oaq/pooled_episode.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "orbit/constellation_builder.hpp"
#include "orbit/shared_visibility_cache.hpp"

#ifndef OAQ_BENCH_BUILD_TYPE
#define OAQ_BENCH_BUILD_TYPE "unknown"
#endif

namespace oaq {
namespace {

using Clock = std::chrono::steady_clock;

/// The seed whose output digests are pinned in perfbench/digests.json
/// (oaqctl's default --seed).
constexpr std::uint64_t kDefaultSeed = 1;

/// Fixed signal start of simulate_qos (src/oaq/montecarlo.cpp): the probes
/// below rebuild the per-episode inputs the entry point derives.
const TimePoint kSignalStart = TimePoint::at(Duration::minutes(60));

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One named workload: the entry-point configuration plus the objects it
/// points at (constellation, fault plan). Not movable — the configs hold
/// pointers into it.
struct Workload {
  std::string name;
  std::uint64_t seed = kDefaultSeed;
  bool campaign = false;
  std::string preset;  ///< constellation preset; empty = analytic mode
  std::optional<Constellation> constellation;
  std::optional<FaultPlan> plan;
  QosSimulationConfig sim;
  CampaignConfig camp;
  bool e10_check = false;       ///< compare the pmf with qos_model
  bool invariant_check = false; ///< outputs must carry 0 violations

  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
};

/// `oaqctl simulate` defaults (tools/oaqctl.cpp, cmd_simulate).
QosSimulationConfig simulate_config(int k, int episodes, std::uint64_t seed) {
  QosSimulationConfig cfg;
  cfg.k = k;
  cfg.episodes = episodes;
  cfg.seed = seed;
  cfg.mu = Rate::per_minute(0.5);
  cfg.protocol.tau = Duration::minutes(5.0);
  cfg.protocol.delta = Duration::seconds(12.0);
  cfg.protocol.tg = Duration::seconds(6.0);
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.queue_metrics = true;
  cfg.batch_metrics = true;
  return cfg;
}

/// The workload table. Sizes are fixed: changing one changes what every
/// earlier measurement means.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->seed = seed;
  if (name == "analytic-k12") {
    // oaqctl simulate --k 12 --episodes 200000
    w->sim = simulate_config(12, 200000, seed);
    w->e10_check = true;
  } else if (name == "starlink-geo") {
    // oaqctl simulate --constellation starlink --episodes 40000
    w->sim = simulate_config(9, 40000, seed);
    w->preset = "starlink";
    w->constellation.emplace(ConstellationBuilder::preset(w->preset).build());
    w->sim.constellation = &*w->constellation;
    w->sim.target = GeoPoint::from_degrees(0.0, 0.0);
  } else if (name == "faulted-k9") {
    // oaqctl simulate --k 9 --episodes 50000 --reliable --loss 0.2
    //   --self-heal --health-alpha 0.45 --outage-train 0,0,1.0,0.5
    //   --ge-loss 0,1,0.2,0.5,0.8
    w->sim = simulate_config(9, 50000, seed);
    ProtocolConfig& p = w->sim.protocol;
    p.crosslink_loss_probability = 0.2;
    p.reliable_links = true;
    p.self_healing_links = true;
    p.link_health_alpha = 0.45;
    // Clause order and window as append_stochastic_clauses: ge-loss first,
    // both over [0, τ].
    w->plan.emplace();
    w->plan->add(FaultPlan::ge_loss(0, 1, 0.2, 0.5, 0.8, Duration::zero(),
                                    p.tau));
    w->plan->add(FaultPlan::outage_train(0, 0, 1.0, 0.5, Duration::zero(),
                                         p.tau));
    w->sim.fault_plan = &*w->plan;
    w->sim.check_invariants = true;
    w->invariant_check = true;
  } else if (name == "campaign-deep") {
    // oaqctl campaign --per-hour 60 --hours 100 --replications 4
    //   --check-invariants   (cmd_campaign defaults otherwise)
    w->campaign = true;
    CampaignConfig& c = w->camp;
    c.k = 9;
    c.signal_arrival_rate = Rate::per_hour(60.0);
    c.horizon = Duration::hours(100.0);
    c.protocol.tau = Duration::minutes(5.0);
    c.protocol.nu = Rate::per_minute(30.0);
    c.protocol.computation_cap = Duration::seconds(6.0);
    c.compute_contention = true;
    c.seed = seed;
    c.replications = 4;
    c.queue_metrics = true;
    c.batch_episodes = true;
    c.check_invariants = true;
    c.episode_attribution = true;
    w->invariant_check = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// Running a workload and digesting its output
// ---------------------------------------------------------------------------

/// Every observer the library offers; attached only in the traced run.
struct Observers {
  TraceCollector trace;
  MetricsRegistry metrics;
  ReduceProfile profile;
  SpanProfiler spans;
};

/// What one entry-point call produced, reduced to what the checks need.
struct Outcome {
  std::int64_t episodes = 0;  ///< simulated signals (campaign: all signals)
  std::string digest;         ///< FNV-1a of the simulated statistics
  std::int64_t invariant_violations = 0;
  std::vector<std::string> invariant_samples;
};

std::string hex_float(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string pmf_text(const DiscretePmf& pmf) {
  std::string out;
  for (const auto& [level, weight] : pmf.weights()) {
    out += std::to_string(level) + ":" + hex_float(weight) + ",";
  }
  return out;
}

std::string fnv1a_hex(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Canonical text of the simulated statistics (level pmf, counters, chain
/// stats); floating-point fields as exact hex so the digest is bit-exact.
std::string digest_of(const SimulatedQos& s) {
  std::ostringstream os;
  os << "episodes=" << s.episodes << ";pmf=" << pmf_text(s.level_pmf)
     << ";duplicates=" << s.duplicates << ";unresolved=" << s.unresolved
     << ";untimely=" << s.untimely
     << ";chain_mean=" << hex_float(s.mean_chain_length)
     << ";chain_max=" << s.max_chain_length
     << ";violations=" << s.invariant_violations;
  return fnv1a_hex(os.str());
}

std::string digest_of(const CampaignResult& r) {
  std::ostringstream os;
  os << "signals=" << r.signals << ";pmf=" << pmf_text(r.levels)
     << ";delivered=" << r.delivered << ";untimely=" << r.untimely
     << ";duplicates=" << r.duplicates << ";replications=" << r.replications
     << ";latency_n=" << r.latency_min.count()
     << ";latency_mean=" << hex_float(r.latency_min.mean())
     << ";latency_var=" << hex_float(r.latency_min.variance())
     << ";contended=" << r.contended_computations
     << ";queueing=" << hex_float(r.mean_queueing_delay_s)
     << ";violations=" << r.invariant_violations;
  return fnv1a_hex(os.str());
}

Outcome run_workload(const Workload& w, int jobs, Observers* obs) {
  Outcome out;
  if (w.campaign) {
    CampaignConfig cfg = w.camp;
    cfg.jobs = jobs;
    if (obs != nullptr) {
      cfg.trace = &obs->trace;
      cfg.metrics = &obs->metrics;
      cfg.profile = &obs->profile;
      cfg.spans = &obs->spans;
    }
    const CampaignResult r = run_campaign(cfg);
    out.episodes = r.signals;
    out.digest = digest_of(r);
    out.invariant_violations = r.invariant_violations;
    out.invariant_samples = r.invariant_samples;
    return out;
  }
  QosSimulationConfig cfg = w.sim;
  cfg.jobs = jobs;
  if (obs != nullptr) {
    cfg.trace = &obs->trace;
    cfg.metrics = &obs->metrics;
    cfg.profile = &obs->profile;
    cfg.spans = &obs->spans;
  }
  const SimulatedQos s = simulate_qos(cfg);
  out.episodes = s.episodes;
  out.digest = digest_of(s);
  out.invariant_violations = s.invariant_violations;
  out.invariant_samples = s.invariant_samples;
  return out;
}

/// Wall time of the same entry point with one episode, including the
/// constellation build for geometric workloads. A campaign's horizon ends
/// at its first possible arrival (60 min), so no signal is armed and the
/// call is the replication fan-out and per-replication construction alone.
double setup_once(const Workload& w, int jobs) {
  const auto t0 = Clock::now();
  if (w.campaign) {
    CampaignConfig cfg = w.camp;
    cfg.jobs = jobs;
    cfg.horizon = Duration::minutes(60.0);
    (void)run_campaign(cfg);
    return seconds_since(t0);
  }
  QosSimulationConfig cfg = w.sim;
  cfg.jobs = jobs;
  cfg.episodes = 1;
  std::optional<Constellation> con;
  if (!w.preset.empty()) {
    con.emplace(ConstellationBuilder::preset(w.preset).build());
    cfg.constellation = &*con;
  }
  (void)simulate_qos(cfg);
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Statistics, metrics and checks
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an unsorted sample (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n)));
  return v[std::min(rank, v.size()) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// One reported metric; `base` names what it was computed from (the
/// numerator and denominator of a ratio, the sample count of a
/// percentile), printed next to the value.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string base = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(base)});
  }
  /// A ratio, printed with its numerator and denominator.
  void add_ratio(std::string name, double num, double den, std::string unit,
                 const std::string& num_name, const std::string& den_name) {
    std::ostringstream base;
    base << num_name << " " << num << " / " << den_name << " " << den;
    add(std::move(name), ratio(num, den), std::move(unit), base.str());
  }
  /// p50/p99(/p999) of a nanosecond sample; a percentile is reported only
  /// when at least ten samples lie beyond it (else it reads 0).
  void add_percentiles(const std::string& prefix,
                       const std::vector<double>& ns, bool p999,
                       const std::string& what) {
    const std::string n = "n=" + std::to_string(ns.size()) + " " + what;
    const auto pct = [&](double p) {
      return ns.size() * (1.0 - p) >= 10.0 ? percentile(ns, p) : 0.0;
    };
    add(prefix + "_p50", pct(0.50), "ns", n);
    add(prefix + "_p99", pct(0.99), "ns", n);
    if (p999) add(prefix + "_p999", pct(0.999), "ns", n);
  }

  /// Marks the last metric n/a when it read counters its entry point does
  /// not record on this workload (then it reads 0); clears `missing`.
  void flag_missing(std::vector<std::string>& missing) {
    if (missing.empty()) return;
    std::string note = "n/a: not recorded on this workload:";
    for (const std::string& name : missing) note += " " + name;
    std::string& base = metrics_.back().base;
    base += base.empty() ? note : "; " + note;
    missing.clear();
  }

  void print(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      char value[64];
      std::snprintf(value, sizeof value, "%.6g", m.value);
      os << "metric " << m.name << " = " << value << " " << m.unit;
      if (!m.base.empty()) os << "  [" << m.base << "]";
      os << "\n";
    }
  }

  /// The result line's "metrics" object: full-precision values.
  void write_json(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                     : 0.0);
      os << (i == 0 ? "" : ",") << "\"" << metrics_[i].name
         << "\":{\"value\":" << value << ",\"unit\":\"" << metrics_[i].unit
         << "\"}";
    }
    os << "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Output checks: every check is one attempt; failures are counted and
/// printed. failed_share = failed / attempted.
class Checks {
 public:
  void expect(bool ok, const std::string& what, const std::string& detail,
              bool quiet = false) {
    ++attempted_;
    if (!ok) ++failed_;
    if (!ok || !quiet) {
      std::cout << "check " << (ok ? "ok     " : "FAILED ") << what;
      if (!detail.empty()) std::cout << "  (" << detail << ")";
      std::cout << "\n";
    }
  }
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }

  void print_result(const Report& report) const {
    std::cout << "{\"correct\":" << (failed_ == 0 ? "true" : "false")
              << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
              << ",\"metrics\":";
    report.write_json(std::cout);
    std::cout << "}\n";
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Determinism and regression checks shared by both modes: the jobs=1
/// reference equals the jobs=nproc run, the default seed reproduces the
/// pinned digest, and fault/campaign workloads audit clean.
void check_outputs(const Workload& w, const Outcome& ref, const Outcome& par,
                   int nproc, const std::string& pinned, Checks& checks) {
  checks.expect(par.digest == ref.digest,
                "statistics identical at jobs=1 and jobs=" +
                    std::to_string(nproc),
                ref.digest + " vs " + par.digest);
  if (!pinned.empty()) {
    std::string got = ref.digest;
    if (w.seed != kDefaultSeed) {
      got = run_workload(*make_workload(w.name, kDefaultSeed), nproc, nullptr)
                .digest;
    }
    checks.expect(got == pinned,
                  "default-seed digest equals the pinned digest",
                  "seed " + std::to_string(kDefaultSeed) + ": " + got +
                      ", pinned " + pinned);
  }
  if (w.invariant_check) {
    std::string detail =
        std::to_string(ref.invariant_violations) + " violation(s)";
    if (!ref.invariant_samples.empty()) {
      detail += "; first: " + ref.invariant_samples.front();
    }
    checks.expect(ref.invariant_violations == 0 &&
                      par.invariant_violations == 0,
                  "invariant checker reports 0 violations", detail);
  }
}

/// E10 (DESIGN.md): the protocol simulation reproduces the closed-form
/// P(Y = y | k) under the analytic model's assumptions — δ = Tg = 0 and
/// uncapped Exp(ν) computations, as tests/oaq/montecarlo_test does — with
/// the workload's k, scheme, seed and episode count. Each level must lie
/// within z·sqrt(p(1-p)/n) + 1/n of the model's p (z = 4.5, a two-sided
/// binomial interval; the 1/n term is the count granularity).
void check_e10(const Workload& w, int nproc, Checks& checks) {
  constexpr double kZ = 4.5;
  QosSimulationConfig cfg = w.sim;
  cfg.jobs = nproc;
  cfg.protocol.delta = Duration::zero();
  cfg.protocol.tg = Duration::zero();
  cfg.protocol.computation_cap = Duration::infinity();
  const SimulatedQos sim = simulate_qos(cfg);
  QosModelParams mp;
  mp.tau = cfg.protocol.tau;
  mp.mu = cfg.mu;
  mp.nu = cfg.protocol.nu;
  const QosModel model(cfg.geometry, mp);
  const auto expected = model.conditional_pmf(
      cfg.k, cfg.opportunity_adaptive ? Scheme::kOaq : Scheme::kBaq);
  const auto n = static_cast<double>(sim.episodes);
  for (int y = 0; y <= 3; ++y) {
    const double p = expected[static_cast<std::size_t>(y)];
    const double got = sim.level_pmf.probability(y);
    const double half = kZ * std::sqrt(p * (1.0 - p) / n) + 1.0 / n;
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "simulated %.5f, model %.5f, |diff| %.5f <= %.5f, n=%.0f",
                  got, p, std::fabs(got - p), half, n);
    checks.expect(std::fabs(got - p) <= half,
                  "E10 level " + std::to_string(y) +
                      " within the binomial interval of qos_model",
                  detail);
  }
}

// ---------------------------------------------------------------------------
// Timed mode: end-to-end metrics
// ---------------------------------------------------------------------------

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string pinned;
};

void print_provenance(const Workload& w, const Options& opt, int nproc) {
  std::cout << "workload " << w.name << "  seed " << opt.seed << "  mode "
            << opt.mode << "  nproc " << nproc << "  build_type "
            << OAQ_BENCH_BUILD_TYPE << "\n";
}

void print_spread(const std::string& what, const std::vector<double>& v,
                  const std::string& unit) {
  char line[240];
  std::snprintf(line, sizeof line,
                "sample %s: n=%zu  min %.6g  q1 %.6g  median %.6g  q3 %.6g  "
                "max %.6g %s\n",
                what.c_str(), v.size(), percentile(v, 0.0),
                percentile(v, 0.25), median(v), percentile(v, 0.75),
                percentile(v, 1.0), unit.c_str());
  std::cout << line;
}

/// Peak resident set of this process image, from /proc/self/status
/// VmHWM. (getrusage's ru_maxrss would also count the parent's memory at
/// fork: Linux carries it across exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

int run_timed(const Options& opt) {
  const int nproc = hardware_jobs();
  const auto w = make_workload(opt.workload, opt.seed);
  print_provenance(*w, opt, nproc);
  Checks checks;

  // Reference outputs at both thread counts, and the pinned/model checks.
  const Outcome ref = run_workload(*w, 1, nullptr);
  const Outcome par = run_workload(*w, nproc, nullptr);
  check_outputs(*w, ref, par, nproc, opt.pinned, checks);
  if (w->e10_check) check_e10(*w, nproc, checks);

  // One timed call; its output must reproduce the reference.
  std::int64_t repetitions = 0;
  std::int64_t mismatches = 0;
  const auto timed_call = [&](int jobs) {
    const auto t0 = Clock::now();
    const Outcome o = run_workload(*w, jobs, nullptr);
    const double wall = seconds_since(t0);
    ++repetitions;
    const bool same = o.digest == ref.digest;
    if (!same) ++mismatches;
    checks.expect(same, "timed repetition reproduces the reference",
                  "jobs=" + std::to_string(jobs) + " " + o.digest,
                  /*quiet=*/true);
    return static_cast<double>(o.episodes) / wall;
  };

  // Untimed warm-up over the first 10% of the budget. One call is not
  // enough: glibc's adaptive mmap threshold settles over the first calls,
  // and until it does faulted-k9 reads ~3x slow at jobs=nproc.
  const auto t_budget = Clock::now();
  do {
    (void)timed_call(nproc);
    (void)timed_call(1);
  } while (seconds_since(t_budget) < 0.1 * opt.seconds);

  // Throughput until 95% of the budget: alternate jobs=nproc and jobs=1
  // calls so both see the same machine conditions.
  std::vector<double> eps_par;
  std::vector<double> eps_1t;
  do {
    eps_par.push_back(timed_call(nproc));
    eps_1t.push_back(timed_call(1));
  } while (eps_1t.size() < 5 || seconds_since(t_budget) < 0.95 * opt.seconds);

  // setup_s: one-episode calls for the rest of the budget, >= 5 of them.
  std::vector<double> setup;
  do {
    setup.push_back(setup_once(*w, nproc));
  } while (setup.size() < 5 || seconds_since(t_budget) < opt.seconds);

  std::cout << "timed repetitions " << repetitions << ", " << mismatches
            << " differ from the reference\n";

  print_spread("episodes_per_s (jobs=" + std::to_string(nproc) + ")",
               eps_par, "1/s");
  print_spread("episodes_per_s_1t (jobs=1)", eps_1t, "1/s");
  print_spread("setup_s", setup, "s");
  std::cout << "episodes per call " << ref.episodes << "\n";

  // episodes_per_s_1t is the run's fastest call, not its median (see
  // "Noise" in README.md): on a shared host a neighbour's load slows a
  // single thread by up to ~60% for seconds at a time and never speeds it
  // up, so the median flips with the share of slow calls while the
  // fastest call stays put. At jobs=nproc a fast call needs every core
  // undisturbed at once, which is rare, so there the median is steadier.
  Report report;
  report.add("episodes_per_s", median(eps_par), "1/s",
             "median of n=" + std::to_string(eps_par.size()) +
                 " calls at jobs=" + std::to_string(nproc));
  report.add("episodes_per_s_1t", percentile(eps_1t, 1.0), "1/s",
             "fastest of n=" + std::to_string(eps_1t.size()) +
                 " calls at jobs=1, median " + std::to_string(median(eps_1t)));
  report.add("setup_s", median(setup), "s",
             "median of n=" + std::to_string(setup.size()) +
                 " one-episode calls");
  std::cout << "failed_share " << ratio(static_cast<double>(checks.failed()),
                                        static_cast<double>(
                                            checks.attempted()))
            << "  [failed " << checks.failed() << " / attempted "
            << checks.attempted() << "]\n";
  report.print(std::cout);
  checks.print_result(report);
  return 0;
}

// ---------------------------------------------------------------------------
// Layers mode: the traced run
// ---------------------------------------------------------------------------

/// Per-name totals over every arena of a span tree. Self time is a node's
/// inclusive wall minus its children's.
struct SpanTotal {
  double self_s = 0.0;
  double wall_s = 0.0;
  std::int64_t count = 0;
  std::int64_t items = 0;
};

std::map<std::string, SpanTotal> span_totals(SpanProfiler& spans) {
  std::map<std::string, SpanTotal> out;
  const auto fold = [&out](const SpanArena& arena) {
    const auto& nodes = arena.nodes();
    std::vector<std::int64_t> child_ns(nodes.size(), 0);
    for (const auto& n : nodes) {
      if (n.parent >= 0) {
        child_ns[static_cast<std::size_t>(n.parent)] += n.wall_ns;
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      SpanTotal& t = out[nodes[i].name];
      t.self_s += static_cast<double>(nodes[i].wall_ns - child_ns[i]) * 1e-9;
      t.wall_s += static_cast<double>(nodes[i].wall_ns) * 1e-9;
      t.count += nodes[i].count;
      t.items += nodes[i].items;
    }
  };
  fold(*spans.main_arena());
  for (int s = 0; s < spans.shards(); ++s) fold(*spans.shard_arena(s));
  return out;
}

/// Exact, jobs-independent bytes of a traced run: metrics registry, span
/// tree with wall times zeroed, and the trace JSONL.
std::string deterministic_bytes(Observers& obs) {
  std::ostringstream os;
  obs.metrics.write_json(os);
  obs.spans.write_chrome_json(os, /*zero_wall=*/true);
  obs.trace.write_jsonl(os);
  return os.str();
}

/// Per-episode inputs simulate_qos derives from episode_rng.fork(e).
struct EpisodeInputs {
  Duration phase;
  Duration duration;
};

EpisodeInputs episode_inputs(const Rng& episode_rng,
                             const DurationDistribution& law,
                             Duration phase_span, std::int64_t e) {
  const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
  Rng phase_rng = ep.fork(1);
  Rng duration_rng = ep.fork(2);
  const Duration phase = phase_rng.uniform(Duration::zero(), phase_span);
  return {phase, law.sample(duration_rng)};
}

/// orbit.*: timed ConstellationBuilder, SharedVisibilityCache seed/freeze
/// and passes_window_into over the workload's episode windows.
void probe_orbit(const Workload& w, Report& report) {
  const QosSimulationConfig& cfg = w.sim;
  std::vector<double> build_s;
  std::vector<double> seed_s;
  std::vector<double> freeze_s;
  std::optional<SharedVisibilityCache> cache;
  // The quantum simulate_qos sizes to cover every episode window.
  VisibilityCache::Options vopt;
  vopt.window_quantum = kSignalStart.since_origin() +
                        w.constellation->max_period() + cfg.protocol.tau +
                        Duration::hours(2);
  std::size_t satellites = 0;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    const Constellation built = ConstellationBuilder::preset(w.preset).build();
    build_s.push_back(seconds_since(t0));
    satellites = built.active_satellites().size();
    cache.emplace(*w.constellation, cfg.earth_rotation, vopt);
    t0 = Clock::now();
    cache->seed_window(cfg.target, Duration::zero(), vopt.window_quantum);
    seed_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    cache->freeze();
    freeze_s.push_back(seconds_since(t0));
  }
  report.add("orbit.build_s", median(build_s), "s",
             "median of n=5 ConstellationBuilder::preset().build(), " +
                 std::to_string(satellites) + " active satellites");
  report.add("orbit.seed_s", median(seed_s), "s",
             "median of n=5 seed_window");
  report.add("orbit.freeze_s", median(freeze_s), "s",
             "median of n=5 freeze");
  report.add("orbit.frozen_entries",
             static_cast<double>(cache->frozen_entries()), "count");

  // The window TargetEpisode::arm queries for each episode.
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  const ExponentialDuration law(cfg.mu);
  std::vector<Pass> out;
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(cfg.episodes));
  for (std::int64_t e = 0; e < cfg.episodes; ++e) {
    const EpisodeInputs in = episode_inputs(
        episode_rng, law, w.constellation->max_period(), e);
    const TimePoint start = kSignalStart + in.phase;
    const Duration from = start.since_origin() - Duration::minutes(20);
    const Duration to = start.since_origin() +
                        std::min(in.duration, Duration::minutes(30)) +
                        cfg.protocol.tau + Duration::minutes(60);
    const auto t0 = Clock::now();
    cache->passes_window_into(cfg.target, from, to, out);
    ns.push_back(ns_since(t0));
  }
  report.add_percentiles("orbit.query_ns", ns, false,
                         "passes_window_into calls");
}

/// fault.expand_ns_*: FaultProcessExpander::expand on the workload's plan,
/// one call per episode's injector fork (protocol.fork(0x666c74)).
void probe_fault(const Workload& w, Report& report) {
  const QosSimulationConfig& cfg = w.sim;
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  FaultProcessExpander expander;
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(cfg.episodes));
  std::size_t clauses = 0;
  for (std::int64_t e = 0; e < cfg.episodes; ++e) {
    const Rng rng = episode_rng.fork(static_cast<std::uint64_t>(e))
                        .fork(3)
                        .fork(0x666c74);
    const auto t0 = Clock::now();
    const FaultPlan& expanded = expander.expand(*cfg.fault_plan, rng);
    ns.push_back(ns_since(t0));
    clauses += expanded.size();
  }
  report.add_percentiles("fault.expand_ns", ns, false,
                         "expand calls, " + std::to_string(clauses) +
                             " scripted clauses emitted");
}

/// oaq.episode_ns_*: BatchEpisodeEngine::run per 8-lane block (analytic
/// workloads) or PooledEpisodeRunner::run_episode per call (geometric),
/// over at least 10 000 samples so p999 has ten samples beyond it.
void probe_episodes(const Workload& w, Report& report) {
  constexpr std::int64_t kMinSamples = 10000;
  const QosSimulationConfig& cfg = w.sim;
  const Rng episode_rng = Rng(cfg.seed).fork(3);
  const ExponentialDuration law(cfg.mu);
  std::vector<double> ns;
  if (w.constellation) {
    VisibilityCache::Options vopt;
    vopt.window_quantum = kSignalStart.since_origin() +
                          w.constellation->max_period() + cfg.protocol.tau +
                          Duration::hours(2);
    SharedVisibilityCache cache(*w.constellation, cfg.earth_rotation, vopt);
    cache.seed_window(cfg.target, Duration::zero(), vopt.window_quantum);
    cache.freeze();
    const GeometricSchedule schedule(cache, cfg.target);
    const std::vector<SatelliteId> sats =
        w.constellation->active_satellites();
    PooledEpisodeRunner runner(schedule, sats, cfg.protocol,
                               cfg.opportunity_adaptive, cfg.fault_plan);
    const std::int64_t n = std::max<std::int64_t>(cfg.episodes, kMinSamples);
    for (std::int64_t e = 0; e < n; ++e) {
      const EpisodeInputs in = episode_inputs(
          episode_rng, law, w.constellation->max_period(), e);
      const Rng ep = episode_rng.fork(static_cast<std::uint64_t>(e));
      const auto t0 = Clock::now();
      (void)runner.run_episode(e, ep.fork(3), kSignalStart + in.phase,
                               in.duration, nullptr, nullptr);
      ns.push_back(ns_since(t0));
    }
    report.add_percentiles("oaq.episode_ns", ns, true,
                           "PooledEpisodeRunner::run_episode calls");
    return;
  }
  BatchEpisodeEngine engine(cfg.geometry, cfg.k, cfg.protocol,
                            cfg.opportunity_adaptive, law, episode_rng,
                            kSignalStart, cfg.fault_plan,
                            cfg.interleave_width);
  InvariantChecker invariants;
  std::int64_t sunk = 0;
  const auto sink = [&sunk](std::int64_t, const EpisodeResult&) { ++sunk; };
  const std::int64_t blocks = std::max<std::int64_t>(
      (cfg.episodes + kEpisodeBatchWidth - 1) / kEpisodeBatchWidth,
      kMinSamples);
  for (std::int64_t b = 0; b < blocks; ++b) {
    const std::int64_t begin = b * kEpisodeBatchWidth;
    const auto t0 = Clock::now();
    engine.run(begin, begin + kEpisodeBatchWidth, nullptr,
               cfg.check_invariants ? &invariants : nullptr, sink);
    ns.push_back(ns_since(t0));
  }
  report.add_percentiles("oaq.episode_ns", ns, true,
                         "BatchEpisodeEngine::run blocks of " +
                             std::to_string(kEpisodeBatchWidth) + ", " +
                             std::to_string(sunk) + " episodes");
}

int run_layers(const Options& opt) {
  const int nproc = hardware_jobs();
  const auto w = make_workload(opt.workload, opt.seed);
  print_provenance(*w, opt, nproc);
  Checks checks;

  // Untimed warm-up over 10% of the budget (see run_timed), then
  // alternate untraced and traced calls at jobs=nproc until 50% of it;
  // obs.trace_overhead compares their medians. The last traced call's
  // observers feed the layer metrics.
  const auto t_budget = Clock::now();
  do {
    (void)run_workload(*w, nproc, nullptr);
  } while (seconds_since(t_budget) < 0.1 * opt.seconds);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> busy;
  std::vector<double> queue_wait;
  std::vector<double> imbalance;
  std::vector<double> merge;
  auto traced = std::make_unique<Observers>();
  Outcome par;
  while (traced_s.size() < 3 || seconds_since(t_budget) < 0.5 * opt.seconds) {
    auto t0 = Clock::now();
    (void)run_workload(*w, nproc, nullptr);
    untraced_s.push_back(seconds_since(t0));
    traced = std::make_unique<Observers>();
    t0 = Clock::now();
    par = run_workload(*w, nproc, traced.get());
    traced_s.push_back(seconds_since(t0));
    const ReduceProfile& p = traced->profile;
    const double sum_run = p.sum_shard_run_s();
    busy.push_back(ratio(sum_run, p.jobs_resolved * p.total_s));
    queue_wait.push_back(p.sum_queue_wait_s());
    imbalance.push_back(ratio(p.max_shard_run_s(), sum_run / p.shards_used));
    merge.push_back(p.merge_s);
  }

  // Exact counts, span structure and trace bytes must not depend on jobs.
  Observers serial;
  const Outcome ref = run_workload(*w, 1, &serial);
  check_outputs(*w, ref, par, nproc, opt.pinned, checks);
  checks.expect(deterministic_bytes(serial) == deterministic_bytes(*traced),
                "metrics, span tree and trace identical at jobs=1 and jobs=" +
                    std::to_string(nproc),
                std::to_string(traced->trace.total_recorded()) +
                    " trace events");

  Report report;
  const auto n_runs = "n=" + std::to_string(traced_s.size()) + " traced calls";
  const ReduceProfile& prof = traced->profile;
  report.add("common.busy_share", median(busy), "share",
             "median over " + n_runs + " of shard run sum / (jobs " +
                 std::to_string(prof.jobs_resolved) + " x reduce wall); last " +
                 std::to_string(prof.sum_shard_run_s()) + " / " +
                 std::to_string(prof.jobs_resolved * prof.total_s));
  report.add("common.queue_wait_s", median(queue_wait), "s",
             "median over " + n_runs + ", summed over " +
                 std::to_string(prof.shards_used) + " shards");
  report.add("common.shard_imbalance", median(imbalance), "ratio",
             "median over " + n_runs + " of max / mean shard run; last " +
                 std::to_string(prof.max_shard_run_s()) + " / " +
                 std::to_string(prof.sum_shard_run_s() / prof.shards_used));
  report.add("common.merge_s", median(merge), "s", "median over " + n_runs);

  // orbit.*: geometric workloads only.
  const MetricsRegistry& m = traced->metrics;
  if (w->constellation) {
    probe_orbit(*w, report);
  } else {
    for (const char* name : {"orbit.build_s", "orbit.seed_s",
                             "orbit.freeze_s"}) {
      report.add(name, 0.0, "s", "no constellation");
    }
    report.add("orbit.frozen_entries", 0.0, "count", "no constellation");
  }
  // Registry counters. One the entry point does not record on this
  // workload reads 0, and flag() marks the metric that read it n/a.
  std::vector<std::string> missing;
  const auto counter = [&m, &missing](const std::string& name) {
    if (!m.counters().contains(name)) missing.push_back(name);
    return static_cast<double>(m.counter(name));
  };
  const auto flag = [&report, &missing] { report.flag_missing(missing); };

  report.add_ratio("orbit.pass_hit_ratio", counter("visibility.pass_hits"),
                   counter("visibility.pass_queries"), "share", "pass hits",
                   "pass queries");
  flag();
  if (!w->constellation) {
    report.add("orbit.query_ns_p50", 0.0, "ns", "n=0 no constellation");
    report.add("orbit.query_ns_p99", 0.0, "ns", "n=0 no constellation");
  }

  // sim.*: exact counts from the registry.
  const auto episodes = static_cast<double>(par.episodes);
  const double events = counter("sim.events");
  const RunningStat& pending = m.stat("sim.peak_pending");
  report.add_ratio("sim.events_per_episode", events, episodes, "count",
                   "sim.events", "episodes");
  flag();
  report.add("sim.peak_pending_max", pending.max(), "count",
             "over " + std::to_string(pending.count()) + " simulators");
  report.add("sim.peak_pending_mean", pending.mean(), "count",
             "over " + std::to_string(pending.count()) + " simulators");
  for (const char* name : {"sim.queue.runs_created", "sim.queue.run_merges",
                           "sim.queue.tombstones_purged"}) {
    report.add(name, counter(name), "count");
    flag();
  }

  // net.*
  const double sent = counter("xlink.sent");
  report.add_ratio("net.messages_per_episode", sent, episodes, "count",
                   "xlink.sent", "episodes");
  flag();
  report.add_ratio("net.delivered_share", counter("xlink.delivered"), sent,
                   "share", "xlink.delivered", "xlink.sent");
  flag();
  report.add("net.drops",
             counter("xlink.dropped_loss") + counter("xlink.dropped_dead") +
                 counter("xlink.dropped_link"),
             "count", "loss + dead + link");
  flag();
  report.add_ratio("net.retries_per_message", counter("net.retry.attempts"),
                   sent, "ratio", "net.retry.attempts", "xlink.sent");
  flag();
  report.add("net.retry_exhausted", counter("net.retry.exhausted"), "count");
  flag();
  report.add("net.health_demoted", counter("net.health.demoted"), "count");
  flag();
  report.add("net.health_probes", counter("net.health.probes"), "count");
  flag();
  report.add("net.health_restored", counter("net.health.restored"), "count");
  flag();
  // simulate_qos records reroutes per episode, run_campaign per network.
  report.add("net.reroutes",
             m.counter("episodes.reroutes") + m.counter("net.health.reroutes"),
             "count");
  if (!m.counters().contains("episodes.reroutes")) {
    (void)counter("net.health.reroutes");
  }
  flag();

  // fault.*
  report.add_ratio("fault.injected_per_episode", counter("net.fault.injected"),
                   episodes, "count", "net.fault.injected", "episodes");
  flag();
  if (w->plan) {
    probe_fault(*w, report);
  } else {
    report.add("fault.expand_ns_p50", 0.0, "ns", "n=0 no fault plan");
    report.add("fault.expand_ns_p99", 0.0, "ns", "n=0 no fault plan");
  }
  report.add("fault.invariant_violations",
             static_cast<double>(par.invariant_violations), "count");

  // oaq.*: batch-engine counters, span self times, episode timers.
  const auto spans = span_totals(traced->spans);
  const auto span = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotal{} : it->second;
  };
  report.add_ratio("oaq.escaped_share", counter("sim.batch.escaped"),
                   counter("sim.batch.episodes"), "share",
                   "sim.batch.escaped", "sim.batch.episodes");
  flag();
  double armed_lanes = 0.0;
  double full_blocks = 0.0;
  for (int i = 0; i <= kEpisodeBatchWidth; ++i) {
    const double c = counter("sim.batch.occupancy." + std::to_string(i));
    armed_lanes += i * c;
    full_blocks += c;
  }
  report.add_ratio("oaq.block_occupancy_mean", armed_lanes, full_blocks,
                   "count", "armed lanes", "full-width blocks");
  flag();
  const SpanTotal prologue = span("prologue");
  const SpanTotal drain = span("drain");
  report.add("oaq.prologue_s", prologue.self_s, "s",
             "span self time, " + std::to_string(prologue.count) + " spans");
  report.add("oaq.drain_s", drain.self_s, "s",
             "span self time, " + std::to_string(drain.count) + " spans");
  report.add_ratio("oaq.drain_ns_per_event", drain.wall_s * 1e9, events, "ns",
                   "drain span ns", "sim.events");
  if (w->campaign) {
    report.add("oaq.episode_ns_p50", 0.0, "ns", "n=0 campaign");
    report.add("oaq.episode_ns_p99", 0.0, "ns", "n=0 campaign");
    report.add("oaq.episode_ns_p999", 0.0, "ns", "n=0 campaign");
  } else {
    probe_episodes(*w, report);
  }
  report.add_ratio("oaq.coordination_per_episode",
                   counter("coordination.requests"), episodes, "count",
                   "coordination.requests", "episodes");
  flag();
  const RunningStat& chain = m.stat("chain.length");
  report.add("oaq.chain_length_mean", chain.mean(), "count",
             "over " + std::to_string(chain.count()) + " detected signals");
  report.add_ratio("oaq.compute_contended_share", counter("compute.contended"),
                   std::round(chain.mean() *
                              static_cast<double>(chain.count())),
                   "share", "contended computations", "chain members");
  flag();
  const SpanTotal arrivals = span("arrivals");
  const SpanTotal finalize = span("finalize");
  report.add("oaq.arrivals_s", arrivals.self_s, "s",
             "span self time, " + std::to_string(arrivals.items) +
                 " signals");
  report.add("oaq.finalize_s", finalize.self_s, "s",
             "span self time, " + std::to_string(finalize.count) + " spans");

  // obs.*: the cost of the traced run itself.
  report.add_ratio("obs.trace_overhead", median(traced_s), median(untraced_s),
                   "ratio", "traced median s", "untraced median s");
  report.add("obs.trace_events",
             static_cast<double>(traced->trace.total_recorded()), "count",
             std::to_string(traced->trace.total_dropped()) +
                 " overwritten in the shard rings");
  std::vector<double> export_s;
  for (int rep = 0; rep < 3; ++rep) {
    std::ostringstream sink;
    const auto t0 = Clock::now();
    traced->trace.write_jsonl(sink);
    traced->spans.write_chrome_json(sink);
    traced->metrics.write_json(sink);
    export_s.push_back(seconds_since(t0));
  }
  report.add("obs.export_s", median(export_s), "s",
             "median of n=3 trace JSONL + span JSON + metrics JSON exports");

  report.add_ratio("failed_share", static_cast<double>(checks.failed()),
                   static_cast<double>(checks.attempted()), "share",
                   "failed checks", "attempted checks");
  report.print(std::cout);
  checks.print_result(report);
  return 0;
}

/// One call at jobs=nproc in a fresh process: the output digest and the
/// process's peak RSS (run.py takes the median over several processes).
int run_once(const Options& opt) {
  const auto w = make_workload(opt.workload, opt.seed);
  const std::string digest = run_workload(*w, hardware_jobs(), nullptr).digest;
  std::printf("digest %s\npeak_rss_mb %.17g\n", digest.c_str(), peak_rss_mb());
  return 0;
}

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Options opt;
  opt.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--pinned") {
      opt.pinned = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("missing --workload");
  return opt;
}

}  // namespace
}  // namespace oaq

int main(int argc, char** argv) {
  try {
    const oaq::Options opt = oaq::parse(argc, argv);
    if (opt.mode == "timed") return oaq::run_timed(opt);
    if (opt.mode == "layers") return oaq::run_layers(opt);
    if (opt.mode == "once") return oaq::run_once(opt);
    throw std::invalid_argument("unknown mode " + opt.mode);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
