// Counting replacements for the global allocation functions. The
// benchmark drives the simulator from one thread, so a plain counter is
// exact; malloc/free do the real work.
#include "counting_alloc.h"

#include <cstdlib>
#include <new>

namespace {

std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  return std::malloc(n ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t sz = ((n ? n : 1) + a - 1) / a * a;
  return std::aligned_alloc(a, sz);
}

}  // namespace

namespace perfbench {
std::uint64_t alloc_count() { return g_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
