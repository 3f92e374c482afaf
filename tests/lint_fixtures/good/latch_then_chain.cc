// Clean counterpart for the latch chain-head rule: the continuation is
// handed to make_latch up front and captures only what it completes, and
// the arms hold the latch — the last arrival releases it.
//
// Checker fixture only; never compiled into a target.
#include <memory>

#include "sim/latch.h"

namespace kvsim::fixture {

inline void fan_in(int arms, sim::Task done) {
  auto join = sim::make_latch(arms, std::move(done));
  for (int i = 0; i < arms; ++i) {
    sim::Task arm = [join] { join->arrive(); };  // OK: arm, not `then`
    arm();
  }
}

inline void weak_then(int arms) {
  auto join = sim::make_status_latch(arms, nullptr);
  join->then = [wjoin = std::weak_ptr<sim::StatusLatch>(join)](Status) {
    (void)wjoin.lock();  // OK: weak self-capture
  };
}

}  // namespace kvsim::fixture
