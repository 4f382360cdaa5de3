#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "run/wire.hpp"
#include "util/error.hpp"

namespace esched::suite {

double nearest_rank(std::vector<double> samples, double q) {
  ESCHED_REQUIRE(!samples.empty(), "nearest_rank of an empty sample");
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

double median(std::vector<double> samples) {
  ESCHED_REQUIRE(!samples.empty(), "median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void Fnv1a::add(const std::uint8_t* data, std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= data[i];
    hash_ *= 1099511628211ull;
  }
}

void Fnv1a::add_u64(std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  add(bytes, sizeof bytes);
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string digest_results(const std::vector<sim::SimResult>& results) {
  Fnv1a fnv;
  for (const sim::SimResult& r : results) {
    fnv.add_record(run::wire::encode_result(r));
  }
  return hex64(fnv.value());
}

}  // namespace esched::suite
