// Counting replacements of the global operator new/delete. The simulator is
// single-threaded, so plain (non-atomic) counters are enough.
#include "perfbench/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

bool g_counting = false;
AllocCounts g_counts;

void* Allocate(std::size_t n) {
  if (g_counting) {
    g_counts.allocs++;
    g_counts.bytes += n;
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  if (g_counting) {
    g_counts.allocs++;
    g_counts.bytes += n;
  }
  std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  std::size_t rounded = (n + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void SetAllocCounting(bool on) { g_counting = on; }
AllocCounts GetAllocCounts() { return g_counts; }

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::Allocate(n); }
void* operator new[](std::size_t n) { return perfbench::Allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return perfbench::AllocateAligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::AllocateAligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::Allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
