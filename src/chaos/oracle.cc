#include "src/chaos/oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace farm {
namespace chaos {

namespace {

// Reference to one account access: (op index in ops(), access index).
struct AccessRef {
  size_t op = 0;
  size_t access = 0;
};

// Resolved chain for one account: the op filling each write slot 1..S.
// Slots filled by committed ops are forced; gaps carry unknown-outcome ops
// found by ResolveChain.
using Chain = std::vector<AccessRef>;

// Backtracking fill of `chain` from `slot` onward. Committed claims are
// forced; a gap slot tries every unused unknown access whose read links to
// the running balance. Unknown candidates are rare (only transfers in
// flight when a fault hit), so the search stays tiny.
bool FillFrom(const std::vector<TransferOp>& ops, uint64_t final_seq, int64_t final_balance,
              const std::map<uint64_t, AccessRef>& committed_slots,
              const std::vector<AccessRef>& unknown_candidates, std::vector<bool>& used,
              uint64_t slot, int64_t balance, Chain& chain) {
  if (slot > final_seq) {
    return balance == final_balance;
  }
  auto it = committed_slots.find(slot);
  if (it != committed_slots.end()) {
    const AccountAccess& a = ops[it->second.op].accesses[it->second.access];
    if (a.bal_read != balance) {
      return false;
    }
    chain.push_back(it->second);
    if (FillFrom(ops, final_seq, final_balance, committed_slots, unknown_candidates, used,
                 slot + 1, a.bal_written, chain)) {
      return true;
    }
    chain.pop_back();
    return false;
  }
  for (size_t i = 0; i < unknown_candidates.size(); i++) {
    if (used[i]) {
      continue;
    }
    const AccessRef& ref = unknown_candidates[i];
    const AccountAccess& a = ops[ref.op].accesses[ref.access];
    if (a.seq_read + 1 != slot || a.bal_read != balance) {
      continue;
    }
    used[i] = true;
    chain.push_back(ref);
    if (FillFrom(ops, final_seq, final_balance, committed_slots, unknown_candidates, used,
                 slot + 1, a.bal_written, chain)) {
      return true;
    }
    chain.pop_back();
    used[i] = false;
  }
  return false;
}

std::string DescribeOp(const TransferOp& op) {
  std::ostringstream out;
  out << "op " << op.uid << " (tx m" << op.tx.machine << "/" << op.tx.local << ")";
  return out.str();
}

}  // namespace

bool BankOracle::Check(const std::vector<FinalAccount>& final_state, std::string* failure,
                       CheckDetail* detail) const {
  std::ostringstream why;
  auto blame = [detail](const TxId& tx) {
    if (detail != nullptr) {
      detail->txs.push_back(tx);
    }
  };

  // ---- 1. at-most-once commit per TxId ----
  std::set<TxId> committed_ids;
  for (const auto& op : ops_) {
    if (op.outcome != OpOutcome::kCommitted) {
      continue;
    }
    if (!committed_ids.insert(op.tx).second) {
      why << "duplicate commit for TxId of " << DescribeOp(op);
      blame(op.tx);
      *failure = why.str();
      return false;
    }
  }

  // ---- 2. conservation ----
  int64_t total = 0;
  for (const auto& a : final_state) {
    total += a.balance;
  }
  int64_t expected = static_cast<int64_t>(accounts_) * initial_balance_;
  if (total != expected) {
    why << "conservation violated: final total " << total << " != " << expected;
    *failure = why.str();
    return false;
  }

  // ---- 3. per-account version chains ----
  std::vector<Chain> chains(static_cast<size_t>(accounts_));
  for (int acct = 0; acct < accounts_; acct++) {
    const FinalAccount& fin = final_state[static_cast<size_t>(acct)];
    std::map<uint64_t, AccessRef> committed_slots;
    std::vector<AccessRef> unknown_candidates;
    for (size_t i = 0; i < ops_.size(); i++) {
      const TransferOp& op = ops_[i];
      for (size_t j = 0; j < op.accesses.size(); j++) {
        const AccountAccess& a = op.accesses[j];
        if (a.account != acct) {
          continue;
        }
        if (op.outcome == OpOutcome::kCommitted) {
          uint64_t slot = a.seq_read + 1;
          if (slot > fin.seq) {
            why << "lost committed write: " << DescribeOp(op) << " wrote account " << acct
                << " slot " << slot << " but final seq is " << fin.seq;
            blame(op.tx);
            *failure = why.str();
            return false;
          }
          auto [it, inserted] = committed_slots.emplace(slot, AccessRef{i, j});
          if (!inserted) {
            why << "double write: " << DescribeOp(op) << " and "
                << DescribeOp(ops_[it->second.op]) << " both claim account " << acct
                << " slot " << slot;
            blame(op.tx);
            blame(ops_[it->second.op].tx);
            *failure = why.str();
            return false;
          }
        } else if (op.outcome == OpOutcome::kUnknown) {
          unknown_candidates.push_back(AccessRef{i, j});
        }
      }
    }
    std::vector<bool> used(unknown_candidates.size(), false);
    Chain& chain = chains[static_cast<size_t>(acct)];
    if (!FillFrom(ops_, fin.seq, fin.balance, committed_slots, unknown_candidates, used,
                  1, initial_balance_, chain)) {
      why << "account " << acct << " chain inconsistent: " << committed_slots.size()
          << " committed writes and " << unknown_candidates.size()
          << " unknown-outcome candidates cannot explain final (seq " << fin.seq
          << ", balance " << fin.balance << ")";
      // Greedy re-walk for the diagnostic: force committed claims (and any
      // matching unknown op) slot by slot until the first slot that cannot
      // be explained, then name the claimants around it.
      uint64_t stuck_slot = 0;
      int64_t stuck_balance = initial_balance_;
      {
        int64_t balance = initial_balance_;
        std::vector<bool> dused(unknown_candidates.size(), false);
        for (uint64_t slot = 1; slot <= fin.seq; slot++) {
          bool filled = false;
          auto it = committed_slots.find(slot);
          if (it != committed_slots.end()) {
            const AccountAccess& a = ops_[it->second.op].accesses[it->second.access];
            if (a.bal_read == balance) {
              balance = a.bal_written;
              filled = true;
            }
          } else {
            for (size_t i = 0; i < unknown_candidates.size(); i++) {
              const AccountAccess& a =
                  ops_[unknown_candidates[i].op].accesses[unknown_candidates[i].access];
              if (!dused[i] && a.seq_read + 1 == slot && a.bal_read == balance) {
                dused[i] = true;
                balance = a.bal_written;
                filled = true;
                break;
              }
            }
          }
          if (!filled) {
            stuck_slot = slot;
            stuck_balance = balance;
            break;
          }
        }
      }
      if (stuck_slot != 0) {
        why << "; first unexplained slot " << stuck_slot << " (running balance "
            << stuck_balance << ")";
        auto sit = committed_slots.find(stuck_slot);
        if (sit != committed_slots.end()) {
          const AccountAccess& a = ops_[sit->second.op].accesses[sit->second.access];
          why << ": claimant " << DescribeOp(ops_[sit->second.op]) << " read (seq "
              << a.seq_read << ", balance " << a.bal_read << ") wrote balance "
              << a.bal_written;
        } else {
          why << ": no committed or unknown-outcome claimant";
          // A write landed that nothing owns up to: look for an op the
          // application saw as aborted whose access matches the gap.
          for (size_t i = 0; i < ops_.size(); i++) {
            for (const AccountAccess& a : ops_[i].accesses) {
              if (a.account == acct && a.seq_read + 1 == stuck_slot &&
                  a.bal_read == stuck_balance) {
                why << "; aborted-but-applied suspect " << DescribeOp(ops_[i]);
                blame(ops_[i].tx);
              }
            }
          }
        }
        // Name the committed neighbors for context; they bound the gap.
        for (uint64_t s = stuck_slot > 2 ? stuck_slot - 2 : 1; s <= stuck_slot + 2; s++) {
          auto nit = committed_slots.find(s);
          if (nit != committed_slots.end()) {
            why << (s < stuck_slot ? "; before: " : (s == stuck_slot ? "; at: " : "; after: "))
                << "slot " << s << " " << DescribeOp(ops_[nit->second.op]);
            blame(ops_[nit->second.op].tx);
          }
        }
      }
      *failure = why.str();
      return false;
    }
  }

  // ---- 4. strict serializability ----
  // Graph nodes: one per op participating in any chain, plus one "clock"
  // node per distinct commit-completion time. Chain edges order conflicting
  // ops; clock nodes compress real-time precedence (A.end < B.begin) into
  // O(n) edges: A -> clock[A.end] -> ... -> clock[t] -> B for the largest
  // end time t before B began. A cycle means no serial order matches both
  // the conflict order and real time.
  std::set<size_t> active_ops;
  for (const auto& chain : chains) {
    for (const auto& ref : chain) {
      active_ops.insert(ref.op);
    }
  }
  std::map<size_t, size_t> op_node;  // op index -> graph node id
  std::vector<size_t> node_op;       // graph node id -> op index (clock nodes: npos)
  size_t next_node = 0;
  for (size_t op : active_ops) {
    op_node[op] = next_node++;
    node_op.push_back(op);
  }
  std::vector<SimTime> end_times;
  for (size_t op : active_ops) {
    if (ops_[op].outcome == OpOutcome::kCommitted) {
      end_times.push_back(ops_[op].end);
    }
  }
  std::sort(end_times.begin(), end_times.end());
  end_times.erase(std::unique(end_times.begin(), end_times.end()), end_times.end());
  std::map<SimTime, size_t> clock_node;
  for (SimTime t : end_times) {
    clock_node[t] = next_node++;
    node_op.push_back(static_cast<size_t>(-1));
  }

  std::vector<std::vector<size_t>> adj(next_node);
  for (const auto& chain : chains) {
    for (size_t k = 0; k + 1 < chain.size(); k++) {
      adj[op_node[chain[k].op]].push_back(op_node[chain[k + 1].op]);
    }
  }
  for (size_t k = 0; k + 1 < end_times.size(); k++) {
    adj[clock_node[end_times[k]]].push_back(clock_node[end_times[k + 1]]);
  }
  for (size_t op : active_ops) {
    if (ops_[op].outcome == OpOutcome::kCommitted) {
      adj[op_node[op]].push_back(clock_node[ops_[op].end]);
    }
    // Largest commit time strictly before this op began: that commit (and
    // everything before it) must serialize first.
    auto it = std::lower_bound(end_times.begin(), end_times.end(), ops_[op].begin);
    if (it != end_times.begin()) {
      adj[clock_node[*std::prev(it)]].push_back(op_node[op]);
    }
  }

  // Iterative three-color DFS for a cycle.
  std::vector<uint8_t> color(next_node, 0);  // 0 white, 1 gray, 2 black
  for (size_t start = 0; start < next_node; start++) {
    if (color[start] != 0) {
      continue;
    }
    std::vector<std::pair<size_t, size_t>> stack = {{start, 0}};
    color[start] = 1;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      if (edge < adj[node].size()) {
        size_t next = adj[node][edge++];
        if (color[next] == 1) {
          why << "strict serializability violated: conflict/real-time cycle through";
          // The cycle is the gray-stack suffix from `next` up; name its ops.
          size_t from = 0;
          while (from < stack.size() && stack[from].first != next) {
            from++;
          }
          for (size_t k = from; k < stack.size(); k++) {
            size_t op = node_op[stack[k].first];
            if (op != static_cast<size_t>(-1)) {
              why << " " << DescribeOp(ops_[op]);
              blame(ops_[op].tx);
            }
          }
          *failure = why.str();
          return false;
        }
        if (color[next] == 0) {
          color[next] = 1;
          stack.push_back({next, 0});
        }
      } else {
        color[node] = 2;
        stack.pop_back();
      }
    }
  }

  return true;
}

}  // namespace chaos
}  // namespace farm
