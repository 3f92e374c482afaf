// Countdown latches for fan-in completions: an operation that waits on
// several parallel arms (CPU time, flash reads, buffer admission) makes
// one shared latch, hands each arm a copy of the pointer, and the last
// arrival runs the continuation.
//
// One make_shared per latch, and a captured shared_ptr is 16 bytes, so
// arm closures stay inside sim::Fn's inline buffer.
#pragma once

#include <memory>
#include <utility>

#include "common/types.h"
#include "sim/task.h"

namespace kvsim::sim {

/// Runs `then` after `remaining` arrivals.
struct Latch {
  int remaining;
  Task then;
  void arrive() {
    if (--remaining == 0) then();
  }
};

/// Runs `then(status)` after `remaining` arrivals, where status is the
/// first non-Ok one any arrival reported: a later failure carries no
/// extra information, and a later Ok cannot clear an earlier error.
struct StatusLatch {
  int remaining;
  Status st = Status::kOk;
  Fn<void(Status)> then;
  void arrive(Status s = Status::kOk) {
    if (st == Status::kOk) st = s;
    if (--remaining == 0) then(st);
  }
};

inline std::shared_ptr<Latch> make_latch(int n, Task then) {
  return std::make_shared<Latch>(Latch{n, std::move(then)});
}

inline std::shared_ptr<StatusLatch> make_status_latch(int n,
                                                      Fn<void(Status)> then) {
  return std::make_shared<StatusLatch>(
      StatusLatch{n, Status::kOk, std::move(then)});
}

}  // namespace kvsim::sim
