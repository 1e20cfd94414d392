// Attribution ledger under batched drains: simulate's per-episode ledger
// must be byte-identical whether armed episodes drain through the batch
// engine or the scalar oracle — and, under randomized fault storms with
// lossy reliable links, every row must reconcile exactly with the trace's
// attributed drop/retry/fault events while the sharpened per-episode I7
// audit stays free of false violations.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "oaq/montecarlo.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"

namespace oaq {
namespace {

/// A signal-relative storm touching every attribution path: a silenced
/// satellite (dead drops), an outage window (link drops), violent burst
/// loss over reliable links (retries and exhausted retries), and a delay
/// spike. Times target the episode's first minutes, where the protocol
/// actually runs.
FaultPlan ledger_storm(Rng& rng, int k) {
  FaultPlan plan;
  const int victim = static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(k)));
  const double down = rng.uniform(0.5, 2.0);
  plan.add(FaultPlan::fail_silent({0, victim}, Duration::minutes(down)));
  plan.add(FaultPlan::recover(
      {0, victim}, Duration::minutes(down + rng.uniform(2.0, 4.0))));
  plan.add(FaultPlan::link_outage(0, 0, Duration::minutes(0.0),
                                  Duration::minutes(rng.uniform(2.0, 5.0))));
  plan.add(FaultPlan::burst_loss(rng.uniform(0.5, 0.9),
                                 Duration::minutes(0.0),
                                 Duration::minutes(rng.uniform(3.0, 6.0))));
  plan.add(FaultPlan::delay_spike(rng.uniform(1.5, 3.0),
                                  Duration::minutes(1.0),
                                  Duration::minutes(4.0)));
  return plan;
}

QosSimulationConfig storm_config(const FaultPlan* plan, std::uint64_t seed) {
  QosSimulationConfig cfg;
  cfg.k = 9;
  cfg.episodes = 300;
  cfg.seed = seed;
  cfg.fault_plan = plan;
  cfg.check_invariants = true;
  cfg.protocol.computation_cap = cfg.protocol.tg;
  cfg.protocol.crosslink_loss_probability = 0.25;
  cfg.protocol.reliable_links = true;
  // One retry only, so exhausted-retry final drops actually occur.
  cfg.protocol.link_retry_limit = 1;
  return cfg;
}

struct StormRun {
  SimulatedQos qos;
  EpisodeLedger ledger;
  std::string trace_jsonl;
};

StormRun run_storm(const FaultPlan& plan, std::uint64_t seed, int jobs,
                   bool batched) {
  QosSimulationConfig cfg = storm_config(&plan, seed);
  cfg.jobs = jobs;
  cfg.batch_episodes = batched;
  TraceCollector trace;
  cfg.trace = &trace;
  StormRun run;
  cfg.ledger = &run.ledger;
  run.qos = simulate_qos(cfg);
  std::ostringstream os;
  trace.write_jsonl(os);
  run.trace_jsonl = os.str();
  return run;
}

std::string ledger_json(const EpisodeLedger& ledger) {
  std::ostringstream os;
  ledger.write_json(os);
  return os.str();
}

/// Copy of `row` with retries_exhausted cleared: the trace has no
/// dedicated exhausted-retry event (a final drop is just kXlinkDrop), so
/// the witness cannot reconstruct that one column.
LedgerRow comparable(const LedgerRow& row) {
  LedgerRow out = row;
  out.retries_exhausted = 0;
  return out;
}

/// Ledger rebuilt from the trace's attributed xlink/fault events: the
/// independent witness the real ledger must match row for row.
EpisodeLedger ledger_from_trace(const std::string& jsonl) {
  EpisodeLedger witness;
  std::istringstream is(jsonl);
  std::string line;
  while (std::getline(is, line)) {
    const auto parsed = parse_trace_line(line);
    if (!parsed) continue;
    const TraceEvent& ev = parsed->event;
    switch (ev.type) {
      case TraceEventType::kXlinkDrop:
        witness.record_drop(ev.episode, static_cast<DropReason>(ev.a));
        break;
      case TraceEventType::kXlinkRetry:
        witness.record_retry(ev.episode);
        break;
      case TraceEventType::kFaultFailSilent:
      case TraceEventType::kFaultRecover:
      case TraceEventType::kFaultLinkOutage:
      case TraceEventType::kFaultDelaySpike:
      case TraceEventType::kFaultBurstLoss:
      case TraceEventType::kFaultPartition:
        if (ev.a > 0) witness.record_fault(ev.episode);
        break;
      default:
        break;
    }
  }
  return witness;
}

TEST(BatchedLedger, BytesIdenticalToScalarOracleAcrossJobs) {
  Rng rng(6121);
  const FaultPlan plan = ledger_storm(rng, 9);
  const StormRun scalar = run_storm(plan, /*seed=*/11, /*jobs=*/1,
                                    /*batched=*/false);
  const std::string expected = ledger_json(scalar.ledger);
  EXPECT_NE(expected.find("\"ep\":"), std::string::npos);  // non-trivial
  const LedgerRow totals = scalar.ledger.totals();
  EXPECT_GT(totals.drops(), 0);
  EXPECT_GT(totals.retries, 0);
  EXPECT_GT(totals.faults, 0);
  for (const int jobs : {1, 4}) {
    const StormRun run = run_storm(plan, /*seed=*/11, jobs, /*batched=*/true);
    EXPECT_EQ(ledger_json(run.ledger), expected) << "jobs " << jobs;
    EXPECT_EQ(run.trace_jsonl, scalar.trace_jsonl) << "jobs " << jobs;
  }
}

TEST(BatchedLedger, RowsReconcileExactlyWithTraceWitness) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 3307);
    const FaultPlan plan = ledger_storm(rng, 9);
    const StormRun run = run_storm(plan, seed, /*jobs=*/2, /*batched=*/true);
    EpisodeLedger witness = ledger_from_trace(run.trace_jsonl);
    witness.reserve(run.ledger.size());
    ASSERT_EQ(run.ledger.size(), witness.size()) << "seed " << seed;
    for (std::size_t ep = 0; ep < run.ledger.size(); ++ep) {
      EXPECT_EQ(comparable(run.ledger.row(static_cast<std::int64_t>(ep))),
                comparable(witness.row(static_cast<std::int64_t>(ep))))
          << "seed " << seed << " episode " << ep;
    }
    EXPECT_EQ(comparable(run.ledger.global_row()),
              comparable(witness.global_row()))
        << "seed " << seed;
    // Episode-anchored plans replay per episode: nothing may leak into
    // the global row, which campaigns reserve for origin-anchored clauses.
    EXPECT_FALSE(run.ledger.global_row().any()) << "seed " << seed;
  }
}

TEST(BatchedLedger, StormsKeepI7AuditCleanUnderBatchedDrains) {
  // Randomized fault storms, batched drains through one reused DES
  // context, and the exact per-episode I7 audit ("no drops and no faults
  // leaves no one unresolved") — the audit reads each lane's OWN
  // ledger-grade telemetry, so state leaking from one episode into the
  // next would surface as a violation here.
  for (std::uint64_t seed = 4; seed <= 6; ++seed) {
    Rng rng(seed * 7109);
    const FaultPlan plan = ledger_storm(rng, 9);
    const StormRun run = run_storm(plan, seed, /*jobs=*/4, /*batched=*/true);
    EXPECT_EQ(run.qos.invariant_violations, 0)
        << "seed " << seed << ": "
        << (run.qos.invariant_samples.empty()
                ? std::string("(no samples)")
                : run.qos.invariant_samples.front());
    EXPECT_GT(run.ledger.totals().faults, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace oaq
