// Walltime (runtime-estimate) quality transforms.
//
// Backfilling — both the baseline's and the window policies'
// beyond-window pass — plans around user walltime estimates, which are
// notoriously loose. The paper's own group showed that adjusting these
// estimates improves Blue Gene scheduling (Tang et al. [24][25]); these
// transforms let experiments sweep estimate quality from oracle to
// useless and measure what it does to backfilling and to the
// power-aware savings (bench/ablation_estimates). All return modified
// copies; walltime >= runtime is preserved.
#pragma once

#include <cstdint>

#include "trace/trace.hpp"

namespace esched::trace {

/// Perfect estimates: walltime = runtime.
Trace with_exact_estimates(const Trace& input);

/// Archive-realistic estimates: users pick from a small menu of round
/// request lengths (30 min, 1 h, 2 h, 4 h, ...), choosing the smallest
/// menu entry >= their job's runtime, then a fraction of users
/// (`sloppy_fraction`) instead request the trace's maximum. This mimics
/// the clustered estimate distributions of real SWF logs [Tsafrir].
/// Deterministic in `seed`.
Trace with_menu_estimates(const Trace& input, double sloppy_fraction,
                          std::uint64_t seed);

/// Per-trace estimate accuracy: mean of runtime/walltime over jobs
/// (1 = perfect, -> 0 = useless).
double estimate_accuracy(const Trace& trace);

}  // namespace esched::trace
