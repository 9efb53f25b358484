// Algorithm 1 of the paper: the greedy subtask-migration planner.
//
// Given P equal-cost subtasks (t_p each), a per-subtask migration cost
// delta, and the free-time windows of candidate idle cores, decide how many
// subtasks to offload to each core such that:
//   R1  n_off <= floor(f_ck / (t_p + delta))      (fits in the core's window)
//   R2  S - n_off >= max_off                      (local keeps at least the
//                                                  largest migrated chunk)
//   R3  n_off <= floor(S / 2)                     (local keeps the majority)
// where S is the number of not-yet-migrated subtasks. The greedy loop stops
// when S <= 1 or candidates are exhausted.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/time_types.hpp"

namespace rtopex::sched {

struct MigrationCandidate {
  unsigned core = 0;
  Duration free_window = 0;  ///< f_ck: predicted idle time from now.
};

struct MigrationChunk {
  unsigned core = 0;
  unsigned count = 0;  ///< subtasks migrated to this core.
};

struct MigrationPlan {
  std::vector<MigrationChunk> chunks;
  unsigned local_subtasks = 0;  ///< subtasks kept on the local core.

  unsigned migrated_total() const {
    unsigned n = 0;
    for (const auto& c : chunks) n += c.count;
    return n;
  }
};

/// Which of Algorithm 1's structural constraints to enforce. The defaults
/// are the paper's; the toggles exist for the ablation study (disabling
/// them lets the local core become the straggler-waiter the paper's rules
/// R2/R3 are designed to prevent).
struct MigrationConstraints {
  /// R2: the subtasks kept local must cover the largest migrated chunk.
  bool local_covers_largest_chunk = true;
  /// R3: at most floor(S/2) subtasks migrate per decision step.
  bool local_keeps_majority = true;
};

/// Algorithm 1's candidate order, shared by the sim and the runtime:
/// descending free window, ties broken by ascending core id.
inline void sort_candidates(std::span<MigrationCandidate> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [](const MigrationCandidate& a, const MigrationCandidate& b) {
              if (a.free_window != b.free_window)
                return a.free_window > b.free_window;
              return a.core < b.core;
            });
}

/// Runs Algorithm 1 into `plan`, which it clears first. Callers keep one
/// plan and reuse it: once its `chunks` can hold one entry per candidate,
/// planning never allocates. Candidates are considered in the order given
/// (callers put them in sort_candidates' order). `subtask_time` must be
/// > 0.
void plan_migration(unsigned num_subtasks, Duration subtask_time,
                    Duration migration_cost,
                    std::span<const MigrationCandidate> candidates,
                    MigrationPlan& plan,
                    const MigrationConstraints& constraints = {});

}  // namespace rtopex::sched
