// Sample statistics and result digests shared by every phase of
// esched-bench.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/result.hpp"

namespace esched::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile: the ceil(q * n)-th smallest sample (1-based,
/// clamped to [1, n]). Throws esched::Error on an empty sample.
double nearest_rank(std::vector<double> samples, double q);

/// Samples strictly above the nearest rank of quantile q among n — a
/// percentile is only reported when at least ten samples lie beyond it.
std::size_t samples_beyond(std::size_t n, double q);

/// Median (mean of the two middle samples for even n). Throws on empty.
double median(std::vector<double> samples);

/// 64-bit FNV-1a.
class Fnv1a {
 public:
  void add(const std::uint8_t* data, std::size_t size);
  void add_u64(std::uint64_t v);
  /// The record's length, then its bytes.
  void add_record(const std::vector<std::uint8_t>& bytes) {
    add_u64(bytes.size());
    add(bytes.data(), bytes.size());
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::string hex64(std::uint64_t v);

/// The correctness digest of a grid's results: FNV-1a over every cell's
/// run::wire::encode_result bytes (each preceded by its length), in
/// submission order. Equal digests mean byte-identical results.
std::string digest_results(const std::vector<sim::SimResult>& results);

}  // namespace esched::suite
