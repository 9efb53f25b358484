#include "sched/migration.hpp"

#include <algorithm>
#include <stdexcept>

namespace rtopex::sched {

void plan_migration(unsigned num_subtasks, Duration subtask_time,
                    Duration migration_cost,
                    std::span<const MigrationCandidate> candidates,
                    MigrationPlan& plan,
                    const MigrationConstraints& constraints) {
  if (subtask_time <= 0)
    throw std::invalid_argument("plan_migration: subtask_time must be > 0");

  plan.chunks.clear();
  unsigned s = num_subtasks;   // S: subtasks not yet migrated
  unsigned max_off = 0;        // max migrated chunk so far
  for (const auto& cand : candidates) {
    if (s <= 1) break;
    const Duration per_subtask = subtask_time + migration_cost;
    const auto lim_off = static_cast<unsigned>(
        std::max<Duration>(0, cand.free_window / per_subtask));  // R1
    unsigned n_off = std::min(lim_off, s);
    if (constraints.local_covers_largest_chunk)                  // R2
      n_off = std::min(n_off, s - max_off);
    if (constraints.local_keeps_majority)                        // R3
      n_off = std::min(n_off, s / 2);
    if (n_off == 0) continue;
    plan.chunks.push_back({cand.core, n_off});
    max_off = std::max(max_off, n_off);
    s -= n_off;
  }
  plan.local_subtasks = s;
}

}  // namespace rtopex::sched
