// Host-speed calibration: a fixed kernel, owned by the benchmark, timed
// between the measured reps of a run.
//
// On a shared host the speed available to a run drifts by tens of percent
// over tens of seconds, and every time the run measures drifts with it.
// Scaling each time by how slow the kernel ran in the same run removes
// most of that drift (README.md, "Host-speed scaling"). The kernel is
// benchmark code, so a change to the program cannot move it; it runs
// while the program is idle, so the program's own work never slows it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace esched::suite {

class HostSpeed {
 public:
  /// Kernel seconds on the reference host (README.md): a run at exactly
  /// the reference host's speed has slowdown() == 1.
  static constexpr double kReferenceSeconds = 0.007;

  HostSpeed();

  /// Time one run of the kernel and keep the sample.
  void sample();

  /// Samples taken so far; pass it to slowdown() to cover one phase.
  std::size_t mark() const { return seconds_.size(); }

  /// Median kernel time of the samples from `first` on, over the reference
  /// time: 2 means the host ran at half the reference speed. 1 when there
  /// is no such sample.
  double slowdown(std::size_t first) const;

 private:
  /// One single-cycle permutation per worker thread; the kernel chases it.
  std::vector<std::vector<std::uint32_t>> rings_;
  std::vector<double> seconds_;
};

}  // namespace esched::suite
