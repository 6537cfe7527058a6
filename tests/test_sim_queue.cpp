// The simulation-integrated queues of the Communication Technology API:
// pushes never invoke the consumer re-entrantly, wakeups coalesce,
// consumers drain in FIFO order, and a drained batch is not kept.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "live_heap.h"
#include "omni/manager.h"
#include "omni/queues.h"

namespace omni {
namespace {

TEST(SimQueueTest, ConsumerRunsInFreshEvent) {
  sim::Simulator sim;
  SimQueue<int> q(sim);
  std::vector<int> got;
  bool in_push_scope = false;
  q.set_consumer([&] {
    EXPECT_FALSE(in_push_scope);  // never re-entrant
    while (auto v = q.try_pop()) got.push_back(*v);
  });
  in_push_scope = true;
  q.push(1);
  q.push(2);
  in_push_scope = false;
  EXPECT_TRUE(got.empty());  // nothing until the event loop spins
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(SimQueueTest, WakeupsCoalesce) {
  sim::Simulator sim;
  SimQueue<int> q(sim);
  int wakeups = 0;
  q.set_consumer([&] {
    ++wakeups;
    while (q.try_pop()) {
    }
  });
  for (int i = 0; i < 100; ++i) q.push(i);
  sim.run();
  EXPECT_EQ(wakeups, 1);
}

TEST(SimQueueTest, ConsumerSetAfterPushStillWakes) {
  sim::Simulator sim;
  SimQueue<int> q(sim);
  q.push(5);
  sim.run();
  int got = 0;
  q.set_consumer([&] {
    if (auto v = q.try_pop()) got = *v;
  });
  sim.run();
  EXPECT_EQ(got, 5);
}

TEST(SimQueueTest, ClearConsumerStopsDelivery) {
  sim::Simulator sim;
  SimQueue<int> q(sim);
  int wakeups = 0;
  q.set_consumer([&] { ++wakeups; });
  q.clear_consumer();
  q.push(1);
  sim.run();
  EXPECT_EQ(wakeups, 0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(SimQueueTest, PushFromConsumerSchedulesAnotherWakeup) {
  sim::Simulator sim;
  SimQueue<int> q(sim);
  std::vector<int> got;
  q.set_consumer([&] {
    while (auto v = q.try_pop()) {
      got.push_back(*v);
      if (*v == 1) q.push(2);  // produced while consuming
    }
  });
  q.push(1);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(SimQueueTest, DrainReturnsBacklogInOrder) {
  sim::Simulator sim;
  SimQueue<int> q(sim);
  for (int i = 0; i < 4; ++i) q.push(i);
  EXPECT_EQ(q.drain(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.drain().empty());
}

/// A data-only technology whose receptions all travel through the
/// manager's receive queue.
class QueuedTech final : public CommTechnology {
 public:
  EnableResult enable(const TechQueues& queues) override {
    queues_ = queues;
    enabled_ = true;
    return EnableResult{Technology::kWifiUnicast,
                        LowLevelAddress{MeshAddress{0xBEEF}}};
  }
  void disable() override { enabled_ = false; }
  Technology type() const override { return Technology::kWifiUnicast; }
  bool enabled() const override { return enabled_; }
  bool supports_context() const override { return false; }
  bool supports_data() const override { return true; }
  std::size_t max_context_payload() const override { return 0; }
  std::size_t max_data_payload() const override { return 0; }
  Duration estimate_data_time(std::size_t, bool) const override {
    return Duration::millis(20);
  }
  void set_engaged(bool) override {}
  bool engaged() const override { return false; }

  void receive(MeshAddress from, Bytes packed) {
    queues_.receive->push(ReceivedPacket{Technology::kWifiUnicast,
                                         LowLevelAddress{from},
                                         std::move(packed)});
  }

 private:
  TechQueues queues_;
  bool enabled_ = false;
};

TEST(SimQueueTest, DrainedPacketIsReleasedByTheTimeTheConsumerReturns) {
  // The manager drains its receive queue by taking each batch: once the
  // consumer has handled a packet, neither the queue nor the manager keeps
  // its buffer or a decoded copy of its payload alive.
  sim::Simulator sim;
  QueuedTech tech;
  OmniManager manager(sim, OmniAddress{1});
  manager.add_technology(tech);
  manager.start();
  std::size_t delivered = 0;
  manager.request_data([&](OmniAddress, const Bytes& data) {
    delivered = data.size();
  });
  sim.run_for(Duration::millis(1));

  constexpr std::size_t kPayload = 1 << 20;
  Bytes frame = PackedStruct::data(OmniAddress{2}, Bytes(kPayload, 0x5a))
                    .encode();
  const std::int64_t before = g_live_heap_bytes.load();  // counts `frame`
  tech.receive(MeshAddress{7}, std::move(frame));
  sim.run_for(Duration::millis(1));  // the deferred wakeup drains the queue

  EXPECT_EQ(delivered, kPayload);
  EXPECT_EQ(manager.stats().data_received, 1u);
  EXPECT_LT(g_live_heap_bytes.load(),
            before - static_cast<std::int64_t>(kPayload / 2))
      << "the drained frame or its decoded payload is still allocated";
}

TEST(SimQueueTest, TryPopInterleavesWithRecycledSlots) {
  sim::Simulator sim;
  SimQueue<int> q(sim);
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.try_pop(), 1);
  q.push(3);
  EXPECT_EQ(q.try_pop(), 2);
  EXPECT_EQ(q.try_pop(), 3);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

}  // namespace
}  // namespace omni
