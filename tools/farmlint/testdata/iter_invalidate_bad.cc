// Fixture: iterators/references used after the container they point into was
// mutated. Every function must fire iterator-invalidate (and nothing
// else). No coroutines needed: invalidation is a same-scope bug.
#include <map>
#include <vector>

int EraseWhileHeld(int key) {
  auto it = sessions_.find(key);
  sessions_.erase(kStaleKey);  // may rebalance/free the node `it` points at
  return it->second;
}

int PushWhileHeld() {
  const Frame& f = frames_.front();
  frames_.push_back(MakeFrame());  // may reallocate the backing array
  return f.sequence;
}

void MutateInRangeFor() {
  for (const auto& s : pending_) {
    if (s.done) {
      pending_.erase(s.id);  // invalidates the loop's hidden iterator
    }
  }
}

uint64_t AssignWhileHeld(GlobalAddr addr, GlobalAddr other) {
  auto it = reads_.find(addr);
  reads_.insert_or_assign(other, ReadEntry{});  // a FlatMap insert shifts entries
  return it->second.word;
}
