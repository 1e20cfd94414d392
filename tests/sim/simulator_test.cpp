#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace oaq {
namespace {

TEST(Simulator, StartsAtOriginWithEmptyQueue) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::minutes(3), [&] { order.push_back(3); });
  sim.schedule_after(Duration::minutes(1), [&] { order.push_back(1); });
  sim.schedule_after(Duration::minutes(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().since_origin().to_minutes(), 3.0);
  EXPECT_EQ(sim.processed_count(), 3u);
}

TEST(Simulator, SimultaneousEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  const auto t = TimePoint::at(Duration::minutes(5));
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_after(Duration::minutes(7.5),
                     [&] { seen = sim.now().since_origin().to_minutes(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(Duration::minutes(1), chain);
  };
  sim.schedule_after(Duration::minutes(1), chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 5.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_after(Duration::minutes(1), [&] { fired = true; });
  EXPECT_TRUE(sim.is_pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.is_pending(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.processed_count(), 0u);
}

TEST(Simulator, CancelOneOfManyLeavesOthers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::minutes(1), [&] { order.push_back(1); });
  const auto id = sim.schedule_after(Duration::minutes(2),
                                     [&] { order.push_back(2); });
  sim.schedule_after(Duration::minutes(3), [&] { order.push_back(3); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::minutes(1), [&] { order.push_back(1); });
  sim.schedule_after(Duration::minutes(5), [&] { order.push_back(5); });
  sim.run_until(TimePoint::at(Duration::minutes(3)));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 3.0);
  EXPECT_EQ(sim.pending_count(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::minutes(3), [&] { fired = true; });
  sim.run_until(TimePoint::at(Duration::minutes(3)));
  EXPECT_TRUE(fired);
}

TEST(Simulator, RejectsPastSchedulingAndBackwardRun) {
  Simulator sim;
  sim.schedule_after(Duration::minutes(2), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::at(Duration::minutes(1)), [] {}),
               PreconditionError);
  EXPECT_THROW(sim.schedule_after(Duration::minutes(-1), [] {}),
               PreconditionError);
  EXPECT_THROW(sim.run_until(TimePoint::at(Duration::minutes(1))),
               PreconditionError);
  EXPECT_THROW(sim.schedule_after(Duration::minutes(1), nullptr),
               PreconditionError);
}

TEST(Simulator, MaxEventsBoundsRunawayChains) {
  Simulator sim;
  std::uint64_t fired = 0;
  std::function<void()> forever = [&] {
    ++fired;
    sim.schedule_after(Duration::minutes(1), forever);
  };
  sim.schedule_after(Duration::minutes(1), forever);
  sim.run(100);
  EXPECT_EQ(fired, 100u);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, CancelInsideEventCallback) {
  Simulator sim;
  bool second_fired = false;
  EventId second{};
  second = sim.schedule_after(Duration::minutes(2),
                              [&] { second_fired = true; });
  sim.schedule_after(Duration::minutes(1), [&] { sim.cancel(second); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

// --- Semantics locked before the pooled-kernel rewrite. These pin the
// exact contract (cancel visibility, FIFO ties, clock advance, gauge
// behaviour) that the old and new kernels must share. ---

TEST(Simulator, CancelDuringCallbackOfSimultaneousEvent) {
  // Two events at the SAME timestamp: the first one's callback cancels the
  // second, which must then not fire even though it is already at the top
  // of the queue region being drained.
  Simulator sim;
  bool second_fired = false;
  const auto t = TimePoint::at(Duration::minutes(1));
  EventId second{};
  sim.schedule_at(t, [&] { EXPECT_TRUE(sim.cancel(second)); });
  second = sim.schedule_at(t, [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
  EXPECT_EQ(sim.processed_count(), 1u);
}

TEST(Simulator, CancelOfAlreadyFiredIdIsNoOp) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.schedule_after(Duration::minutes(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.is_pending(id));
  EXPECT_FALSE(sim.cancel(id));
  // A later event must be unaffected by the stale cancel.
  sim.schedule_after(Duration::minutes(1), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, OwnIdNotPendingDuringCallback) {
  // While an event's callback runs, the event has left the pending set:
  // cancelling or querying the own id reports "already fired".
  Simulator sim;
  EventId self{};
  bool checked = false;
  self = sim.schedule_after(Duration::minutes(1), [&] {
    EXPECT_FALSE(sim.is_pending(self));
    EXPECT_FALSE(sim.cancel(self));
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(Simulator, EqualTimestampFifoSurvivesInterleavedCancels) {
  // FIFO among simultaneous events must hold even when some of the
  // interleaved events are cancelled before the timestamp drains.
  Simulator sim;
  const auto t = TimePoint::at(Duration::minutes(2));
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(sim.schedule_at(t, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 12; i += 3) sim.cancel(ids[static_cast<std::size_t>(i)]);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
}

TEST(Simulator, ScheduleAtCurrentTimeDuringCallbackFiresAfterQueue) {
  // An event scheduled at now() from inside a callback runs after the
  // events already queued at that timestamp (sequence order).
  Simulator sim;
  const auto t = TimePoint::at(Duration::minutes(1));
  std::vector<int> order;
  sim.schedule_at(t, [&] {
    order.push_back(0);
    sim.schedule_at(sim.now(), [&] { order.push_back(2); });
  });
  sim.schedule_at(t, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, RunUntilAdvancesClockPastCancelledTail) {
  // run_until must advance the clock to the boundary even when every
  // remaining event beneath it was cancelled.
  Simulator sim;
  const auto id = sim.schedule_after(Duration::minutes(2), [] {});
  sim.cancel(id);
  sim.run_until(TimePoint::at(Duration::minutes(4)));
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 4.0);
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.processed_count(), 0u);
  // And scheduling before the advanced clock must now throw.
  EXPECT_THROW(sim.schedule_at(TimePoint::at(Duration::minutes(3)), [] {}),
               PreconditionError);
}

TEST(Simulator, RunUntilOnEmptyQueueStillAdvancesClock) {
  Simulator sim;
  sim.run_until(TimePoint::at(Duration::minutes(9)));
  EXPECT_DOUBLE_EQ(sim.now().since_origin().to_minutes(), 9.0);
}

TEST(Simulator, PeakPendingTracksHighWaterMonotonically) {
  Simulator sim;
  EXPECT_EQ(sim.peak_pending_count(), 0u);
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.schedule_after(Duration::minutes(i + 1), [] {}));
    EXPECT_EQ(sim.peak_pending_count(), static_cast<std::size_t>(i + 1));
  }
  // Cancelling shrinks the pending set but never the high-water mark.
  sim.cancel(ids[0]);
  sim.cancel(ids[1]);
  EXPECT_EQ(sim.pending_count(), 6u);
  EXPECT_EQ(sim.peak_pending_count(), 8u);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
  EXPECT_EQ(sim.peak_pending_count(), 8u);
  // Refilling below the mark leaves it unchanged; exceeding it moves it.
  for (int i = 0; i < 9; ++i) {
    sim.schedule_after(Duration::minutes(i + 1), [] {});
  }
  EXPECT_EQ(sim.peak_pending_count(), 9u);
}

TEST(Simulator, CancelHeavyChurnKeepsHeapBounded) {
  // Cancelled events stay in the heap as tombstones until they surface or
  // a compaction sweeps them. A long-lived simulator that arms many timers
  // and cancels most of them before they fire — retry timers, wait
  // deadlines — must not let tombstones pile up: the heap (tombstones
  // included) stays within twice the peak live set plus the compaction
  // slack, however many rounds run.
  Simulator sim;
  Rng rng(4242);
  std::vector<EventId> armed;
  std::size_t peak_live = 0;
  int fired = 0;
  for (int round = 0; round < 3000; ++round) {
    const int burst = 1 + static_cast<int>(rng.uniform_index(40));
    for (int i = 0; i < burst; ++i) {
      armed.push_back(sim.schedule_after(
          Duration::seconds(1.0 + rng.uniform(0.0, 600.0)), [&] { ++fired; }));
      peak_live = std::max(peak_live, sim.pending_count());
    }
    // Cancel ~90% of what is armed (stale ids of fired events included).
    for (const EventId id : armed) {
      if (rng.bernoulli(0.9)) sim.cancel(id);
    }
    armed.clear();
    sim.run_until(sim.now() + Duration::seconds(rng.uniform(0.0, 2.0)));
    ASSERT_LE(sim.queue_stats().max_entries, 2 * peak_live + 64)
        << "round " << round;
  }
  sim.run();
  EXPECT_GT(fired, 0);
  EXPECT_GT(sim.queue_stats().tombstones_purged, 0u);
  EXPECT_LE(sim.queue_stats().max_entries, 2 * peak_live + 64);
}

TEST(Simulator, IdsStayDistinctAcrossHeavyChurn) {
  // Schedule/cancel/fire churn must never produce an id that aliases a
  // live event (the generation-tag contract of the pooled kernel).
  Simulator sim;
  std::vector<EventId> live;
  int fired = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 8; ++i) {
      live.push_back(
          sim.schedule_after(Duration::seconds(1 + (round + i) % 7),
                             [&] { ++fired; }));
    }
    // Cancel half; every cancel must report success exactly once.
    for (std::size_t i = 0; i < live.size(); i += 2) {
      EXPECT_TRUE(sim.cancel(live[i]));
      EXPECT_FALSE(sim.cancel(live[i]));
    }
    sim.run();
    for (const auto id : live) EXPECT_FALSE(sim.is_pending(id));
    live.clear();
  }
  EXPECT_EQ(fired, 200 * 4);
}

// --- reset() equivalence property (ISSUE 9). The batch engine leans on
// reset() between lanes, so a reused kernel must be indistinguishable
// from a fresh one — same event order AND same queue-maintenance
// counters, since QueueStats feeds the deterministic metrics export. ---

/// One randomized episode driven against a simulator: schedules bursts of
/// events (some at equal timestamps, some chained from callbacks), cancels
/// a random subset, fires part of the timeline with run_until, then drains.
/// Returns the fired-event log as "seq@time" strings.
std::vector<std::string> random_episode(Simulator& sim, Rng rng) {
  std::vector<std::string> fired;
  std::vector<EventId> ids;
  const int bursts = 3 + static_cast<int>(rng.uniform_index(3));
  int label = 0;
  for (int burst = 0; burst < bursts; ++burst) {
    const int events = 4 + static_cast<int>(rng.uniform_index(12));
    const double base =
        sim.now().since_origin().to_seconds() + rng.uniform(0.0, 30.0);
    for (int i = 0; i < events; ++i) {
      // Half the events share the burst timestamp to exercise FIFO ties.
      const double at = rng.bernoulli(0.5) ? base : base + rng.uniform(0.0, 60.0);
      const int id = label++;
      Rng chain_rng = rng.fork(static_cast<std::uint64_t>(id));
      ids.push_back(sim.schedule_at(
          TimePoint::at(Duration::seconds(at)), [&sim, &fired, id, chain_rng] {
            fired.push_back(std::to_string(id) + "@" +
                            std::to_string(sim.now().since_origin().to_seconds()));
            Rng r = chain_rng;
            if (r.bernoulli(0.4)) {
              const int child = -id - 1;  // distinct label space for chains
              sim.schedule_after(Duration::seconds(r.uniform(0.0, 10.0)),
                                 [&sim, &fired, child] {
                                   fired.push_back(
                                       std::to_string(child) + "@" +
                                       std::to_string(
                                           sim.now().since_origin().to_seconds()));
                                 });
            }
          }));
    }
    // Cancel a random subset (stale cancels of fired ids are no-ops).
    for (const auto id : ids) {
      if (rng.bernoulli(0.25)) sim.cancel(id);
    }
    // Fire part of the timeline before the next scheduling burst so spills
    // land both on an empty queue and mid-drain.
    sim.run_until(TimePoint::at(
        Duration::seconds(sim.now().since_origin().to_seconds() +
                          rng.uniform(0.0, 45.0))));
  }
  sim.run();
  return fired;
}

TEST(Simulator, ResetEquivalentToFreshAcrossRandomizedCycles) {
  // One long-lived simulator is reset between randomized episodes; each
  // episode must replay what a fresh simulator produces — same fired-event
  // log, same clock, same QueueStats (reset zeroes the counters, so a
  // reused kernel's telemetry is a pure function of the episode, not of
  // how many episodes came before — the metrics-determinism contract).
  Simulator reused;
  for (int cycle = 0; cycle < 25; ++cycle) {
    const Rng episode_rng = Rng(991).fork(static_cast<std::uint64_t>(cycle));
    Simulator fresh;
    const auto fresh_fired = random_episode(fresh, episode_rng);
    const auto reused_fired = random_episode(reused, episode_rng);
    EXPECT_EQ(reused_fired, fresh_fired) << "cycle " << cycle;
    EXPECT_EQ(reused.now().since_origin().to_seconds(),
              fresh.now().since_origin().to_seconds())
        << "cycle " << cycle;

    const QueueStats& fs = fresh.queue_stats();
    const QueueStats& rs = reused.queue_stats();
    EXPECT_EQ(rs.tombstones_purged, fs.tombstones_purged) << "cycle " << cycle;
    EXPECT_EQ(rs.max_entries, fs.max_entries) << "cycle " << cycle;

    const SimAccounting fa = fresh.accounting();
    const SimAccounting ra = reused.accounting();
    EXPECT_EQ(ra.scheduled, fa.scheduled) << "cycle " << cycle;
    EXPECT_EQ(ra.processed, fa.processed) << "cycle " << cycle;
    EXPECT_EQ(ra.cancelled, fa.cancelled) << "cycle " << cycle;
    EXPECT_EQ(ra.pending, 0u) << "cycle " << cycle;
    EXPECT_EQ(reused.peak_pending_count(), fresh.peak_pending_count())
        << "cycle " << cycle;

    reused.reset();
  }
}

// --- Ready-queue oracle property. The kernel's heap must fire exactly what
// a naive model fires: a flat list of pending events, searched linearly
// for the smallest (time, scheduling order). ---

/// The naive reference kernel. Ids are the ones the real kernel issued —
/// opaque handles here, never used for ordering.
class OracleKernel {
 public:
  struct Pending {
    double at = 0.0;
    std::uint64_t order = 0;
    int label = 0;
    EventId id;
  };

  void schedule(double at, int label, EventId id) {
    pending_.push_back({at, order_++, label, id});
    ++scheduled_;
  }
  bool cancel(EventId id) {
    const auto it = std::find_if(pending_.begin(), pending_.end(),
                                 [id](const Pending& p) { return p.id == id; });
    if (it == pending_.end()) return false;
    pending_.erase(it);
    ++cancelled_;
    return true;
  }
  /// Remove and return the next event to fire; advances the clock.
  Pending pop() {
    const auto it = std::min_element(
        pending_.begin(), pending_.end(),
        [](const Pending& a, const Pending& b) {
          if (a.at != b.at) return a.at < b.at;
          return a.order < b.order;
        });
    const Pending p = *it;
    pending_.erase(it);
    now_ = p.at;
    ++processed_;
    return p;
  }
  [[nodiscard]] bool has_due(double until) const {
    return std::any_of(pending_.begin(), pending_.end(),
                       [until](const Pending& p) { return p.at <= until; });
  }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  void advance_to(double t) { now_ = t; }
  void reset() { *this = OracleKernel{}; }
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] SimAccounting accounting() const {
    return {scheduled_, processed_, cancelled_, pending_.size()};
  }

 private:
  std::vector<Pending> pending_;
  double now_ = 0.0;
  std::uint64_t order_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t cancelled_ = 0;
};

/// Drives one Simulator and one OracleKernel through the same operation
/// stream. Every fired event runs a label-determined reaction — schedule
/// a same-time or near-future child, cancel the newest id (live or
/// already fired) — on whichever kernel fired it, so callbacks exercise
/// the queue from inside a pop as well.
class OracleHarness {
 public:
  void schedule_at(double at) {
    const int label = next_label_++;
    const EventId id = sim_.schedule_at(TimePoint::at(Duration::seconds(at)),
                                        [this, label] { react(label); });
    oracle_.schedule(at, label, id);
    ids_.push_back(id);
  }
  void schedule_after(double delay) {
    // schedule_after adds to now() in TimePoint arithmetic; the oracle
    // mirrors it with the kernel's own clock so both see the same time.
    const int label = next_label_++;
    const EventId id = sim_.schedule_after(Duration::seconds(delay),
                                           [this, label] { react(label); });
    oracle_.schedule(
        (sim_.now() + Duration::seconds(delay)).since_origin().to_seconds(),
        label, id);
    ids_.push_back(id);
  }
  void cancel(std::size_t pick) {
    if (ids_.empty()) return;
    const EventId id = ids_[pick % ids_.size()];
    const bool expected = oracle_.cancel(id);
    ASSERT_EQ(sim_.cancel(id), expected);
  }
  /// Cancel most of the newest `n` ids — mostly still pending, so the
  /// tombstones pile up past the compaction threshold.
  void cancel_recent(std::size_t n, std::uint64_t mask) {
    for (std::size_t k = 0; k < n && k < ids_.size(); ++k) {
      if ((mask >> (k % 64)) & 1u) cancel(ids_.size() - 1 - k);
    }
  }
  void run_until(double t) {
    sim_.run_until(TimePoint::at(Duration::seconds(t)));
    while (oracle_.has_due(t)) fire_oracle();
    oracle_.advance_to(t);
  }
  void step() {
    const bool fired = sim_.step();
    ASSERT_EQ(fired, !oracle_.empty());
    if (fired) fire_oracle();
  }
  void drain_and_reset() {
    sim_.run();
    while (!oracle_.empty()) fire_oracle();
    compare();
    sim_.reset();
    oracle_.reset();
    ids_.clear();
  }
  void compare() {
    ASSERT_EQ(sim_fired_, oracle_fired_);
    ASSERT_EQ(sim_.now().since_origin().to_seconds(), oracle_.now());
    const SimAccounting a = sim_.accounting();
    const SimAccounting b = oracle_.accounting();
    ASSERT_EQ(a.scheduled, b.scheduled);
    ASSERT_EQ(a.processed, b.processed);
    ASSERT_EQ(a.cancelled, b.cancelled);
    ASSERT_EQ(a.pending, b.pending);
    ASSERT_EQ(sim_.pending_count(), b.pending);
  }
  [[nodiscard]] double now() const {
    return sim_.now().since_origin().to_seconds();
  }
  [[nodiscard]] std::size_t fired() const { return sim_fired_.size(); }

 private:
  struct Fired {
    int label;
    double at;
    friend bool operator==(const Fired&, const Fired&) = default;
  };

  /// What one fired callback did to the simulator, recorded so the oracle
  /// can replay exactly the same reaction when it fires that label.
  struct Reaction {
    bool fired = false;
    bool has_child = false;
    int child = 0;
    double child_at = 0.0;
    EventId child_id;
    bool has_cancel = false;
    EventId cancelled;
    bool cancel_result = false;
  };

  /// Simulator side of a fire: log it, then schedule a child (a same-time
  /// tie for a third of the children) and/or cancel the newest id.
  void react(int label) {
    sim_fired_.push_back({label, now()});
    Reaction& r = reaction(label);
    r.fired = true;
    if (label % 3 == 0) {
      const Duration delay =
          Duration::seconds(0.25 * static_cast<double>((label / 3) % 3));
      r.has_child = true;
      r.child = next_label_++;
      r.child_at = (sim_.now() + delay).since_origin().to_seconds();
      r.child_id = sim_.schedule_after(
          delay, [this, child = r.child] { react(child); });
      ids_.push_back(r.child_id);
    }
    if (label % 5 == 0 && !ids_.empty()) {
      // `r` may dangle once reaction() grows the table; re-fetch it.
      Reaction& rr = reaction(label);
      rr.has_cancel = true;
      rr.cancelled = ids_.back();
      rr.cancel_result = sim_.cancel(ids_.back());
    }
  }

  /// Oracle side of a fire: pop the model's minimum and replay the
  /// reaction the simulator recorded for that label.
  void fire_oracle() {
    const OracleKernel::Pending p = oracle_.pop();
    oracle_fired_.push_back({p.label, p.at});
    const Reaction r = reaction(p.label);
    if (!r.fired) return;  // divergence; the fired logs will disagree
    if (r.has_child) oracle_.schedule(r.child_at, r.child, r.child_id);
    if (r.has_cancel) {
      EXPECT_EQ(oracle_.cancel(r.cancelled), r.cancel_result)
          << "label " << p.label;
    }
  }

  Reaction& reaction(int label) {
    const auto i = static_cast<std::size_t>(label);
    if (i >= reactions_.size()) reactions_.resize(i + 1);
    return reactions_[i];
  }

  Simulator sim_;
  OracleKernel oracle_;
  std::vector<EventId> ids_;
  std::vector<Fired> sim_fired_;
  std::vector<Fired> oracle_fired_;
  std::vector<Reaction> reactions_;
  int next_label_ = 0;
};

TEST(Simulator, HeapMatchesSortedListOracleUnderRandomOperations) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng = Rng(5150).fork(seed);
    OracleHarness h;
    for (int op = 0; op < 1500; ++op) {
      // Times on a coarse 0.25 s grid: many exact ties.
      const double offset = 0.25 * static_cast<double>(rng.uniform_index(12));
      const std::uint64_t kind = rng.uniform_index(100);
      if (kind < 30) {
        h.schedule_at(h.now() + offset);
      } else if (kind < 45) {
        h.schedule_after(offset);
      } else if (kind < 50) {
        // A burst at one timestamp, so compaction sees deep queues.
        const int n = 20 + static_cast<int>(rng.uniform_index(80));
        for (int i = 0; i < n; ++i) h.schedule_at(h.now() + offset);
      } else if (kind < 68) {
        h.cancel(static_cast<std::size_t>(rng.uniform_index(1u << 20)));
      } else if (kind < 72) {
        h.cancel_recent(40 + rng.uniform_index(120),
                        rng.next_u64() | rng.next_u64());
      } else if (kind < 90) {
        h.run_until(h.now() + offset);
      } else if (kind < 99) {
        h.step();
      } else {
        h.drain_and_reset();
      }
      if (HasFatalFailure()) return;
      h.compare();
      if (HasFatalFailure()) return;
    }
    h.drain_and_reset();
    if (HasFatalFailure()) return;
    EXPECT_GT(h.fired(), 0u);
  }
}

}  // namespace
}  // namespace oaq
