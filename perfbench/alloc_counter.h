// Heap-allocation counter for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new/delete of the binary it
// is linked into. While counting is enabled, every operator new call adds one
// allocation and its requested size. Counting is off by default, so untraced
// runs pay one predictable branch per allocation.
#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

void SetAllocCounting(bool on);
AllocCounts GetAllocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
