// Process-wide heap-allocation counter. counting_alloc.cc replaces the
// global operator new family, so every allocation the simulator makes
// (through new, std::allocator, or sim::Fn's heap fallback) bumps it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made since process start.
std::uint64_t alloc_count();

}  // namespace perfbench
