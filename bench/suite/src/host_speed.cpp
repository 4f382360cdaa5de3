#include "host_speed.hpp"

#include <random>
#include <thread>
#include <utility>

#include "stats.hpp"

namespace esched::suite {

namespace {

// Two threads, like the two simulating workers of every plane. The rings
// fit in a core's L2 cache: a ring that spills to memory times how its
// pages happened to map onto the cache, which differs from one process to
// the next, and that noise would enter every scaled metric.
constexpr std::size_t kThreads = 2;
constexpr std::size_t kRingSize = std::size_t{1} << 16;
constexpr std::size_t kSteps = std::size_t{1} << 20;

std::uint64_t chase(const std::vector<std::uint32_t>& ring) {
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    at = ring[at];
    acc = acc * 31 + at;
  }
  return acc;
}

}  // namespace

HostSpeed::HostSpeed() {
  std::mt19937 rng(20131117);
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Sattolo's algorithm: a random permutation made of a single cycle.
    std::vector<std::uint32_t> ring(kRingSize);
    for (std::size_t i = 0; i < kRingSize; ++i) {
      ring[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = kRingSize - 1; i > 0; --i) {
      const std::size_t j =
          std::uniform_int_distribution<std::size_t>(0, i - 1)(rng);
      std::swap(ring[i], ring[j]);
    }
    rings_.push_back(std::move(ring));
  }
}

void HostSpeed::sample() {
  std::vector<std::uint64_t> sinks(kThreads);
  const auto begin = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([this, t, &sinks] { sinks[t] = chase(rings_[t]); });
    }
  }
  seconds_.push_back(seconds_since(begin));
  // The sum keeps the chase from being optimized away.
  static volatile std::uint64_t sink = 0;
  for (const std::uint64_t s : sinks) sink = sink + s;
}

double HostSpeed::slowdown(std::size_t first) const {
  if (first >= seconds_.size()) return 1.0;
  return median({seconds_.begin() + static_cast<std::ptrdiff_t>(first),
                 seconds_.end()}) /
         kReferenceSeconds;
}

}  // namespace esched::suite
