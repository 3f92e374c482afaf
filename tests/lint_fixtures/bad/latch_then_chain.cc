// Seeded violation for the latch chain-head rule: a fan-in latch made
// without a continuation whose `then` is assigned afterwards, strongly
// capturing the latch itself. The latch owns the callable that owns the
// latch, so the refcount never reaches zero even after the last arrival.
//
// Checker fixture only; never compiled into a target.
#include <memory>

#include "sim/latch.h"

namespace kvsim::fixture {

inline void leak_latch(int arms) {
  auto join = sim::make_latch(arms, nullptr);
  join->then = [join] {  // BAD: strong self-capture
    (void)join->remaining;
  };
}

inline void leak_status_latch(int arms) {
  auto join = std::make_shared<sim::StatusLatch>();
  join->remaining = arms;
  (*join).then = [keep = join](Status s) {  // BAD: aliased self-capture
    (void)keep;
    (void)s;
  };
}

}  // namespace kvsim::fixture
