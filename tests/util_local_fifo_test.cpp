#include <gtest/gtest.h>

#include <memory>

#include "util/local_fifo.hpp"

namespace {

using tram::util::LocalFifo;

TEST(LocalFifo, PopsInPushOrder) {
  LocalFifo<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 0u);  // nothing allocated before the first push
  EXPECT_FALSE(q.try_pop().has_value());
  for (int i = 0; i < 5; ++i) q.push(int{i});
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.try_pop(), i);
  EXPECT_TRUE(q.empty());
}

TEST(LocalFifo, GrowsAcrossTheWrapPointKeepingOrder) {
  // Offset head and tail so the ring is wrapped when it fills, then push
  // past capacity: growth must unwrap the live elements in order.
  constexpr int kCap = static_cast<int>(LocalFifo<int>::kInitialCapacity);
  LocalFifo<int> q;
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < kCap - 2; ++i) q.push(int{next_in++});
  for (int i = 0; i < kCap - 4; ++i) EXPECT_EQ(q.try_pop(), next_out++);
  ASSERT_EQ(q.capacity(), LocalFifo<int>::kInitialCapacity);
  for (int i = 0; i < kCap + 3; ++i) q.push(int{next_in++});
  EXPECT_EQ(q.capacity(), 2 * LocalFifo<int>::kInitialCapacity);
  while (auto v = q.try_pop()) EXPECT_EQ(*v, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(LocalFifo, PushWhileHoldingAPoppedValue) {
  // A dispatched message may enqueue more (a self-send from a handler),
  // growing the ring while the popped value is alive.
  constexpr int kCap = static_cast<int>(LocalFifo<int>::kInitialCapacity);
  LocalFifo<std::unique_ptr<int>> q;
  for (int i = 0; i < kCap; ++i) q.push(std::make_unique<int>(i));
  auto held = q.try_pop();
  ASSERT_TRUE(held.has_value());
  for (int i = kCap; i < 2 * kCap + 1; ++i) q.push(std::make_unique<int>(i));
  EXPECT_EQ(**held, 0);
  for (int i = 1; i < 2 * kCap + 1; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(**v, i);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
