#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace oaq {

namespace {

/// Heap arity. Four children per node halve the depth of a binary heap,
/// and a node's children sit side by side (96 bytes), so the extra
/// compares per sift-down level touch memory that is already loaded.
constexpr std::size_t kArity = 4;

/// Tombstone slack before compaction: the heap is rebuilt once it holds
/// more than 2 * live + kCompactSlack entries, i.e. once tombstones
/// outnumber live entries by the slack. Small queues never compact; large
/// ones pay O(heap) only after as many cancels, so compaction is
/// amortized O(1) per cancel.
constexpr std::size_t kCompactSlack = 64;

/// Time bits for the ordering key. Sim times are nonnegative (schedule_at
/// requires t >= now and the clock starts at the origin), so the IEEE bit
/// pattern compares like an unsigned integer; +0.0 normalizes a possible
/// negative zero, and +infinity orders above every finite time.
std::uint64_t time_bits(TimePoint t) {
  return std::bit_cast<std::uint64_t>(t.since_origin().to_seconds() + 0.0);
}

}  // namespace

void Simulator::sift_up(std::size_t i, QueueEntry e) {
  const unsigned __int128 key = e.key();
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (heap_[parent].key() < key) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i, QueueEntry e) {
  const unsigned __int128 key = e.key();
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    unsigned __int128 best_key = heap_[first].key();
    for (std::size_t c = first + 1; c < last; ++c) {
      const unsigned __int128 k = heap_[c].key();
      if (k < best_key) {
        best = c;
        best_key = k;
      }
    }
    if (key < best_key) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::pop_top() {
  const QueueEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

const Simulator::QueueEntry* Simulator::live_top() {
  if (live_ == 0) {
    // Everything left is a tombstone: drop the lot in O(1).
    queue_stats_.tombstones_purged += heap_.size();
    heap_.clear();
    return nullptr;
  }
  while (!entry_live(heap_.front())) {
    pop_top();
    ++queue_stats_.tombstones_purged;
  }
  return &heap_.front();
}

void Simulator::compact() {
  const std::size_t before = heap_.size();
  std::erase_if(heap_, [this](const QueueEntry& e) { return !entry_live(e); });
  queue_stats_.tombstones_purged +=
      static_cast<std::uint64_t>(before - heap_.size());
  // Floyd heapify. Keys are unique, so the rebuilt layout pops in the
  // same order as the old one.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i, heap_[i]);
    }
  }
}

EventId Simulator::schedule_at(TimePoint t, Callback cb) {
  OAQ_REQUIRE(t >= now_, "cannot schedule an event in the past");
  OAQ_REQUIRE(cb != nullptr, "event callback must be callable");
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
    // The free list holds at most one entry per slab slot; growing it in
    // lockstep keeps the later disarm path (cancel/fire, incl. queue
    // drain) allocation-free.
    free_.reserve(slab_.capacity());
  }
  OAQ_REQUIRE(next_seq_ != UINT64_MAX, "scheduling-order counter exhausted");
  Event& ev = slab_[slot];
  ev.at = t;
  ev.callback = std::move(cb);
  ++ev.gen;  // arm: generation becomes odd
  heap_.emplace_back();
  sift_up(heap_.size() - 1,
          QueueEntry{time_bits(t), next_seq_++, slot, ev.gen});
  if (heap_.size() > queue_stats_.max_entries) {
    queue_stats_.max_entries = heap_.size();
  }
  ++scheduled_;
  ++live_;
  if (live_ > peak_pending_) peak_pending_ = live_;
  return pack(slot, ev.gen);
}

EventId Simulator::schedule_after(Duration delay, Callback cb) {
  OAQ_REQUIRE(delay >= Duration::zero(), "delay must be nonnegative");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slab_.size()) return false;
  Event& ev = slab_[slot];
  if (ev.gen != gen_of(id) || (ev.gen & 1u) == 0) return false;
  ++ev.gen;  // disarm: the queue entry becomes a tombstone
  ev.callback = nullptr;  // release captured state now, not at pop time
  free_.push_back(slot);
  ++cancelled_;
  --live_;
  if (heap_.size() > 2 * live_ + kCompactSlack) compact();
  return true;
}

bool Simulator::is_pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slab_.size() && slab_[slot].gen == gen_of(id) &&
         (gen_of(id) & 1u) != 0;
}

bool Simulator::step() {
  const QueueEntry* next = live_top();
  if (next == nullptr) return false;
  const QueueEntry top = *next;
  pop_top();
  Event& ev = slab_[top.slot];
  OAQ_ENSURE(ev.at >= now_, "event queue violated time order");
  ++ev.gen;  // disarm before invoking: the own id reads "already fired"
  Callback cb = std::move(ev.callback);
  free_.push_back(top.slot);
  --live_;
  now_ = ev.at;
  ++processed_;
  cb();  // may grow the slab; `ev` must not be touched past this point
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) return;
  }
}

void Simulator::run_until(TimePoint t) {
  OAQ_REQUIRE(t >= now_, "cannot run backwards");
  const std::uint64_t limit = time_bits(t);
  for (const QueueEntry* top = live_top();
       top != nullptr && top->at_bits <= limit; top = live_top()) {
    step();
  }
  now_ = t;
}

void Simulator::reserve(std::size_t events) {
  slab_.reserve(events);
  free_.reserve(events);
  heap_.reserve(events);
}

void Simulator::reset() {
  OAQ_REQUIRE(live_ == 0, "reset with events still pending");
  now_ = TimePoint::origin();
  next_seq_ = 1;
  processed_ = 0;
  scheduled_ = 0;
  cancelled_ = 0;
  peak_pending_ = 0;
  queue_stats_ = {};
  heap_.clear();  // tombstones only (nothing is pending); capacity survives
  // slab_ and free_ survive: every slot is disarmed (even generation) and
  // already on the free list, so the next episode reuses them in place.
}

}  // namespace oaq
