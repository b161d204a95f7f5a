// Virtual clock, discrete-event scheduler and shard-runner tests.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "sim/clock.h"
#include "sim/scheduler.h"
#include "sim/shards.h"

namespace shield5g::sim {
namespace {

TEST(VirtualClock, StartsAtZeroAndAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.advance(0);
  EXPECT_EQ(clock.now(), 100u);
}

TEST(VirtualClock, AdvanceToAbsolute) {
  VirtualClock clock;
  clock.advance_to(1'000);
  EXPECT_EQ(clock.now(), 1'000u);
  clock.advance_to(1'000);  // same instant is allowed
  EXPECT_THROW(clock.advance_to(999), std::logic_error);
}

TEST(VirtualClock, ObserversSeeEveryAdvance) {
  VirtualClock clock;
  std::vector<std::pair<Nanos, Nanos>> seen;
  clock.add_observer([&seen](Nanos prev, Nanos now) {
    seen.emplace_back(prev, now);
  });
  clock.advance(10);
  clock.advance(5);
  ASSERT_EQ(seen.size(), 2u);
  const auto first = std::make_pair<Nanos, Nanos>(0, 10);
  const auto second = std::make_pair<Nanos, Nanos>(10, 15);
  EXPECT_EQ(seen[0], first);
  EXPECT_EQ(seen[1], second);
}

TEST(VirtualClock, ObserverRemoval) {
  VirtualClock clock;
  int calls = 0;
  const std::size_t id =
      clock.add_observer([&calls](Nanos, Nanos) { ++calls; });
  clock.advance(1);
  clock.remove_observer(id);
  clock.advance(1);
  EXPECT_EQ(calls, 1);
}

TEST(VirtualClock, UnitHelpers) {
  EXPECT_DOUBLE_EQ(to_us(1'500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_s(3 * kSecond), 3.0);
}

TEST(Scheduler, RunsInTimestampOrder) {
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<int> order;
  sched.at(30, [&order] { order.push_back(3); });
  sched.at(10, [&order] { order.push_back(1); });
  sched.at(20, [&order] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), 30u);
}

TEST(Scheduler, FifoAmongSameInstant) {
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.at(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, TasksMayScheduleMoreTasks) {
  VirtualClock clock;
  Scheduler sched(clock);
  int fired = 0;
  sched.at(10, [&] {
    ++fired;
    sched.after(5, [&] { ++fired; });
  });
  sched.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(clock.now(), 15u);
}

TEST(Scheduler, RunUntilLeavesLaterEventsQueued) {
  VirtualClock clock;
  Scheduler sched(clock);
  int fired = 0;
  sched.at(10, [&fired] { ++fired; });
  sched.at(100, [&fired] { ++fired; });
  sched.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now(), 50u);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, PastInstantRejected) {
  VirtualClock clock;
  Scheduler sched(clock);
  clock.advance(100);
  EXPECT_THROW(sched.at(50, [] {}), std::logic_error);
}

TEST(Scheduler, AfterIsRelative) {
  VirtualClock clock;
  Scheduler sched(clock);
  clock.advance(1'000);
  Nanos fired_at = 0;
  sched.after(250, [&] { fired_at = clock.now(); });
  sched.run();
  EXPECT_EQ(fired_at, 1'250u);
}

// ---- run_until edge cases (the concurrent engine leans on these) -------

TEST(Scheduler, RunUntilFifoAmongEventsAtTheDeadline) {
  // Events AT the deadline run, in submission order.
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<int> order;
  sched.at(50, [&order] { order.push_back(0); });
  sched.at(50, [&order] { order.push_back(1); });
  sched.at(50, [&order] { order.push_back(2); });
  sched.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(clock.now(), 50u);
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, RunUntilRunsEventsScheduledByEventsAtTheDeadline) {
  // A deadline-instant event that schedules another deadline-instant
  // event must see it run in the same call; one scheduled a nanosecond
  // later must stay queued.
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<int> order;
  sched.at(100, [&] {
    order.push_back(0);
    sched.at(100, [&order] { order.push_back(1); });
    sched.at(101, [&order] { order.push_back(2); });
  });
  sched.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(clock.now(), 100u);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(clock.now(), 101u);
}

TEST(Scheduler, RunUntilAdvancesToDeadlineWithEmptyQueue) {
  VirtualClock clock;
  Scheduler sched(clock);
  sched.run_until(777);
  EXPECT_EQ(clock.now(), 777u);
  // A second call to the same instant is a no-op, not a rewind.
  sched.run_until(777);
  EXPECT_EQ(clock.now(), 777u);
}

TEST(Scheduler, RunUntilInterleavesCascadesAcrossInstants) {
  // An event before the deadline schedules work at and past the
  // deadline; only the "past" part may remain queued.
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<Nanos> fired;
  sched.at(10, [&] {
    fired.push_back(clock.now());
    sched.after(10, [&] { fired.push_back(clock.now()); });   // t=20
    sched.after(90, [&] { fired.push_back(clock.now()); });   // t=100
    sched.after(91, [&] { fired.push_back(clock.now()); });   // t=101
  });
  sched.run_until(100);
  EXPECT_EQ(fired, (std::vector<Nanos>{10, 20, 100}));
  EXPECT_EQ(clock.now(), 100u);
  EXPECT_EQ(sched.pending(), 1u);
}

// ---- heap order properties ---------------------------------------------
//
// The storage behind the scheduler is one binary heap on (timestamp,
// sequence). These tests drive adversarial schedules through it and
// check the observable contract never wavers: global (timestamp, FIFO)
// order.

TEST(Scheduler, RandomScheduleMatchesStableSortReference) {
  // Deterministic LCG workload: timestamps collide often (small range),
  // arrive in no particular order, and every event records its identity.
  // The execution order must equal a stable sort of the submissions by
  // timestamp — exactly the contract the old priority_queue provided.
  VirtualClock clock;
  Scheduler sched(clock);
  std::uint64_t lcg = 0x5eedULL;
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  constexpr int kEvents = 2000;
  std::vector<std::pair<Nanos, int>> submitted;
  std::vector<int> fired;
  for (int i = 0; i < kEvents; ++i) {
    const Nanos when = next() % 97;  // heavy timestamp collisions
    submitted.emplace_back(when, i);
    sched.at(when, [&fired, i] { fired.push_back(i); });
  }
  EXPECT_EQ(sched.pending(), static_cast<std::size_t>(kEvents));
  sched.run();
  std::stable_sort(submitted.begin(), submitted.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  ASSERT_EQ(fired.size(), submitted.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], submitted[i].second) << "at position " << i;
  }
}

TEST(Scheduler, RingAndHeapMergePreservesOrderAcrossCascades) {
  // Monotone appends; each fired event then schedules a continuation
  // that lands before the latest pending instant. The pop order must
  // stay globally sorted with FIFO ties.
  VirtualClock clock;
  Scheduler sched(clock);
  std::vector<Nanos> fired;
  for (Nanos t = 10; t <= 100; t += 10) {
    sched.at(t, [&, t] {
      fired.push_back(clock.now());
      sched.after(25, [&] { fired.push_back(clock.now()); });
    });
  }
  sched.run();
  ASSERT_EQ(fired.size(), 20u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]) << "out of order at " << i;
  }
  EXPECT_EQ(clock.now(), 125u);  // last continuation: 100 + 25
}

TEST(Scheduler, ReserveIsBehaviorNeutral) {
  VirtualClock clock;
  Scheduler with(clock);
  with.reserve(1024);
  VirtualClock clock2;
  Scheduler without(clock2);
  std::vector<int> a;
  std::vector<int> b;
  for (int i = 0; i < 64; ++i) {
    const Nanos when = static_cast<Nanos>((i * 37) % 50);
    with.at(when, [&a, i] { a.push_back(i); });
    without.at(when, [&b, i] { b.push_back(i); });
  }
  with.run();
  without.run();
  EXPECT_EQ(a, b);
}

TEST(Scheduler, PublishesPushPopPeakCounters) {
  const std::uint64_t pushed_before = counter_value("scheduler.events.pushed");
  const std::uint64_t popped_before = counter_value("scheduler.events.popped");
  VirtualClock clock;
  Scheduler sched(clock);
  // Two waves with a drain in between: the peak is the larger wave, not
  // the total, and push/pop totals accumulate across both drains.
  for (int i = 0; i < 8; ++i) {
    sched.at(static_cast<Nanos>(i), [] {});
  }
  sched.run();
  for (int i = 0; i < 3; ++i) {
    sched.at(clock.now() + static_cast<Nanos>(i), [] {});
  }
  sched.run();
  EXPECT_EQ(counter_value("scheduler.events.pushed") - pushed_before, 11u);
  EXPECT_EQ(counter_value("scheduler.events.popped") - popped_before, 11u);
  // Lifetime high-water mark: at least this scheduler's peak of 8 (the
  // counter is a process-wide max, so other tests may have raised it).
  EXPECT_GE(counter_value("scheduler.events.peak"), 8u);
}

// ---- rewind / ClockSpan (the concurrent engine's lookahead) ------------

TEST(VirtualClock, RewindMovesBackwardsSilently) {
  VirtualClock clock;
  int notifications = 0;
  clock.add_observer([&notifications](Nanos, Nanos) { ++notifications; });
  clock.advance(100);
  clock.rewind(40);
  EXPECT_EQ(clock.now(), 40u);
  EXPECT_EQ(notifications, 1);  // only the advance was observed
  EXPECT_THROW(clock.rewind(41), std::logic_error);  // forward = error
  clock.rewind(40);  // same instant is allowed
  EXPECT_EQ(clock.now(), 40u);
}

TEST(ClockSpan, MeasuresElapsedAndRewinds) {
  VirtualClock clock;
  clock.advance(1'000);
  ClockSpan span(clock);
  clock.advance(250);
  EXPECT_EQ(span.start(), 1'000u);
  EXPECT_EQ(span.elapsed(), 250u);
  EXPECT_EQ(span.close(), 250u);
  EXPECT_EQ(clock.now(), 1'000u);
}

TEST(ClockSpan, DestructorRewindsWhenNotClosed) {
  VirtualClock clock;
  clock.advance(500);
  {
    ClockSpan span(clock);
    clock.advance(123);
    EXPECT_EQ(clock.now(), 623u);
  }
  EXPECT_EQ(clock.now(), 500u);
}

TEST(ShardWorkers, ExplicitRequestBeatsAffinityMask) {
  EXPECT_EQ(shard_workers(1), 1u);
  EXPECT_EQ(shard_workers(3), 3u);
  EXPECT_EQ(shard_workers(7), 7u);
}

TEST(ShardWorkers, DefaultIsAffinityMaskCount) {
  // No count asked for: one worker per CPU this process may run on, so
  // `taskset` narrows the width.
  cpu_set_t mask{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  const auto cpus = static_cast<unsigned>(CPU_COUNT(&mask));
  EXPECT_EQ(shard_workers(), cpus < 256 ? cpus : 256u);
}

TEST(ShardWorkers, AbsurdCountsAreClamped) {
  // Resolves the count only; no thread is started from these values.
  EXPECT_EQ(shard_workers(256), 256u);
  EXPECT_EQ(shard_workers(257), 256u);
  EXPECT_EQ(shard_workers(100000), 256u);
}

TEST(RunShards, MapReturnsResultsInJobOrder) {
  const std::vector<std::size_t> out =
      map_shards(4, 100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i) << "job " << i;
  }
}

TEST(RunShards, RunExecutesEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  run_shards(3, 64, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
}

TEST(RunShards, SingleWorkerRunsInlineOnCaller) {
  // workers=1 is the sequential reference path: no thread is started,
  // so thread-hostile callers see the single-threaded behavior.
  std::vector<std::thread::id> seen(5);
  run_shards(1, 5, [&seen](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : seen) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(RunShards, WidthIsCappedByJobCount) {
  // Eight workers asked for, two jobs: only one thread besides the
  // caller starts, so at most two threads run jobs.
  std::mutex mutex;
  std::set<std::thread::id> threads;
  run_shards(8, 2, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), 2u);
}

TEST(RunShards, FirstExceptionPropagatesAfterDrain) {
  std::atomic<int> ran{0};
  EXPECT_THROW(run_shards(4, 32,
                          [&ran](std::size_t i) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                            if (i == 5) {
                              throw std::runtime_error("shard 5 failed");
                            }
                          }),
               std::runtime_error);
  // Every job runs before the rethrow: none is abandoned mid-flight.
  EXPECT_EQ(ran.load(), 32);
}

TEST(RunShards, ZeroJobsIsANoop) {
  bool touched = false;
  run_shards(4, 0, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
  EXPECT_TRUE(map_shards(4, 0, [](std::size_t i) { return i; }).empty());
}

}  // namespace
}  // namespace shield5g::sim
