#include "tools/farmlint/rules.h"

#include <algorithm>
#include <array>
#include <string_view>
#include <tuple>

#include "tools/farmlint/analyzer.h"
#include "tools/farmlint/diag.h"

namespace farmlint {
namespace {

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

constexpr std::array<std::string_view, 8> kAssocTypes = {
    "map",           "multimap",      "set",           "multiset",
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

// Identifiers that read host wall-clock or monotonic time. Any of these in
// simulator/protocol/bench code breaks same-seed reproducibility.
constexpr std::array<std::string_view, 13> kWallClockIdents = {
    "system_clock", "steady_clock",  "high_resolution_clock", "gettimeofday",
    "clock_gettime", "localtime",    "localtime_r",           "gmtime",
    "gmtime_r",      "mktime",       "strftime",              "timespec_get",
    "ftime"};

// Nondeterministically-seeded or global-state RNGs; all randomness must come
// from the seeded Pcg32 in src/common/rand.h.
constexpr std::array<std::string_view, 10> kRandIdents = {
    "random_device", "mt19937",     "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b", "random_shuffle"};

// libc RNG entry points, matched only in call position (`rand(`).
constexpr std::array<std::string_view, 8> kRandCalls = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "srand48", "srandom", "random"};

// Wall-clock libc entry points, matched only in call position.
constexpr std::array<std::string_view, 2> kTimeCalls = {"time", "clock"};

template <typename Arr>
bool Contains(const Arr& arr, std::string_view s) {
  return std::find(arr.begin(), arr.end(), s) != arr.end();
}

const std::vector<RuleInfo> kRules = {
    {"wall-clock", true,
     "host wall-clock/monotonic time reads; use the simulated clock (src/sim/time.h)"},
    {"raw-rand", true,
     "non-seeded or global-state randomness; use farm::Pcg32 (src/common/rand.h)"},
    {"unordered-iter", true,
     "iteration over an unordered container; hash order can leak into message/"
     "schedule/stats order"},
    {"unordered-decl", false,
     "unordered container declared in a protocol-order-sensitive directory; "
     "justify with an allow comment or use an ordered container"},
    {"chaos-rng", false,
     "Pcg32 seeded with a literal in chaos code; all chaos randomness must "
     "derive from the plan seed or a dumped schedule cannot replay it"},
    {"ptr-key", true,
     "container ordered/keyed by pointer value; addresses differ across runs (ASLR, "
     "allocation order)"},
    {"float-key", true,
     "float/double map/set key; rounding makes order and equality fragile"},
    {"include-guard", true, "header must start with an include guard or #pragma once"},
    {"using-namespace-header", true,
     "using-directive in a header leaks names into every includer"},
    {"recorder-pod", true,
     "flight-recorder records (structs named *Record in files using "
     "src/obs/flight_recorder.h) must stay trivially copyable and pointer-free"},
    {"await-hazard", true,
     "pointer/reference/iterator from an unstable accessor (Placement(), map "
     "find()/at()/operator[], begin()/end()) used across a co_await; "
     "re-resolve after resume or mark the accessor '// farmlint: stable'"},
    {"lock-across-await", true,
     "RAII lock guard held across a co_await; the lock stays taken while the "
     "coroutine is parked"},
    {"await-in-conditional", true,
     "co_await in a branch of ?:; GCC 12 can destroy such a branch's temporaries "
     "twice (double free), so assign the result in an if/else"},
    {"iterator-invalidate", true,
     "container mutated while an iterator/reference into it is live in the "
     "same scope and used afterwards"},
    {"mutable-global", false,
     "non-const, non-thread_local variable at namespace scope, function-local "
     "static or static data member; state outliving one simulation must be "
     "owned by its Cluster or be per-thread"},
    {"emit-only", false,
     "tracer, milestone or fault-hook call outside emit.*/cluster.*; protocol code "
     "reports each step once, through its node's Emitter (src/core/emit.h)"},
    {"wire-only", false,
     "byte-level message codec (BufWriter/BufReader, Put/Get of ids, addresses or "
     "placements) outside wire.*/config.*/ringlog.*/msgr.*; declare the body as a "
     "struct with Fields in src/core/wire.h and send or decode it whole"},
    {"bad-allow", true,
     "suppression hygiene: allow(<rule>) naming an unknown rule, or a "
     "'farmlint: stable' annotation that binds to no accessor declaration"},
};

// True when sig[i] is used as a function call target `name(` that is not a
// member access (`x.time()`) and not qualified by a non-std namespace.
bool IsFreeOrStdCall(const std::vector<const Token*>& sig, size_t i) {
  if (i + 1 >= sig.size() || !IsPunct(sig[i + 1], "(")) {
    return false;
  }
  if (i >= 1) {
    const Token* prev = sig[i - 1];
    if (IsPunct(prev, ".") || IsPunct(prev, "->")) {
      return false;
    }
    if (prev->kind == TokKind::kIdentifier) {
      // `uint64_t time()` declares a member named time; `return time(0)`
      // calls the libc function.
      static constexpr std::array<std::string_view, 6> kStmtKeywords = {
          "return", "co_return", "co_await", "co_yield", "else", "case"};
      return Contains(kStmtKeywords, prev->text);
    }
    if (IsPunct(prev, "::")) {
      // Qualified: only std:: (or global ::) counts as the libc/std entity.
      if (i >= 2 && sig[i - 2]->kind == TokKind::kIdentifier) {
        return sig[i - 2]->text == "std";
      }
      return true;  // `::time(...)`
    }
  }
  return true;
}

// Starting at sig[open] == "<", returns the index just past the matching ">"
// (treating ">>" as two closers), or 0 if unbalanced/too long. Fills
// `first_arg` with the tokens of the first template argument.
size_t SkipTemplateArgs(const std::vector<const Token*>& sig, size_t open,
                        std::vector<const Token*>* first_arg) {
  int depth = 0;
  bool in_first = true;
  constexpr size_t kMaxSpan = 512;
  for (size_t i = open; i < sig.size() && i < open + kMaxSpan; ++i) {
    const Token* t = sig[i];
    if (IsPunct(t, "<")) {
      depth++;
      if (i != open && in_first && first_arg != nullptr) {
        first_arg->push_back(t);
      }
      continue;
    }
    if (IsPunct(t, ">") || IsPunct(t, ">>")) {
      depth -= IsPunct(t, ">>") ? 2 : 1;
      if (depth <= 0) {
        return i + 1;
      }
      if (in_first && first_arg != nullptr) {
        first_arg->push_back(t);
      }
      continue;
    }
    // Abort on tokens that cannot appear in a template argument list: this
    // `<` was a comparison, not a template opener.
    if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) {
      return 0;
    }
    if (depth == 1 && IsPunct(t, ",")) {
      in_first = false;
      continue;
    }
    if (i != open && in_first && first_arg != nullptr) {
      first_arg->push_back(t);
    }
  }
  return 0;
}

void CheckWallClockAndRand(const FileInput& file, const std::vector<const Token*>& sig,
                           Reporter& rep) {
  bool rand_exempt = file.basename == "rand.h" || file.basename == "rand.cc";
  for (size_t i = 0; i < sig.size(); ++i) {
    const Token* t = sig[i];
    if (t->kind != TokKind::kIdentifier || t->in_directive) {
      continue;
    }
    if (Contains(kWallClockIdents, t->text)) {
      rep.Report("wall-clock", t->line, t->col,
                 "'" + t->text + "' reads host time; use SimTime/Simulator::Now()");
      continue;
    }
    if (Contains(kTimeCalls, t->text) && IsFreeOrStdCall(sig, i)) {
      rep.Report("wall-clock", t->line, t->col,
                 "call to '" + t->text + "()' reads host time; use SimTime/Simulator::Now()");
      continue;
    }
    if (rand_exempt) {
      continue;
    }
    if (Contains(kRandIdents, t->text)) {
      rep.Report("raw-rand", t->line, t->col,
                 "'" + t->text + "' is not seed-reproducible; use farm::Pcg32");
      continue;
    }
    if (Contains(kRandCalls, t->text) && IsFreeOrStdCall(sig, i)) {
      rep.Report("raw-rand", t->line, t->col,
                 "call to '" + t->text + "()' uses hidden global RNG state; use farm::Pcg32");
    }
  }
}

void CheckUnorderedIter(const std::vector<const Token*>& sig,
                        const std::set<std::string>& unordered_names, Reporter& rep) {
  for (size_t i = 0; i < sig.size(); ++i) {
    const Token* t = sig[i];
    // Range-for whose range expression mentions a known unordered name.
    if (IsIdent(t, "for") && i + 1 < sig.size() && IsPunct(sig[i + 1], "(")) {
      int depth = 0;
      size_t colon = 0;
      size_t close = 0;
      for (size_t j = i + 1; j < sig.size() && j < i + 256; ++j) {
        if (IsPunct(sig[j], "(")) {
          depth++;
        } else if (IsPunct(sig[j], ")")) {
          depth--;
          if (depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && IsPunct(sig[j], ":") && colon == 0) {
          colon = j;
        }
      }
      if (colon != 0 && close != 0) {
        for (size_t j = colon + 1; j < close; ++j) {
          if (sig[j]->kind == TokKind::kIdentifier &&
              unordered_names.count(sig[j]->text) != 0) {
            rep.Report("unordered-iter", t->line, t->col,
                       "range-for over unordered container '" + sig[j]->text +
                           "'; hash order is not deterministic");
            break;
          }
        }
      }
      continue;
    }
    // name.begin() / name->cbegin() etc. on a known unordered name.
    if (t->kind == TokKind::kIdentifier && unordered_names.count(t->text) != 0 &&
        i + 3 < sig.size() && (IsPunct(sig[i + 1], ".") || IsPunct(sig[i + 1], "->"))) {
      const std::string& m = sig[i + 2]->text;
      if ((m == "begin" || m == "cbegin" || m == "rbegin" || m == "crbegin") &&
          IsPunct(sig[i + 3], "(")) {
        rep.Report("unordered-iter", t->line, t->col,
                   "iterator walk of unordered container '" + t->text +
                       "'; hash order is not deterministic");
      }
    }
  }
}

void CheckUnorderedDecl(const std::vector<const Token*>& sig, Reporter& rep) {
  for (const Token* t : sig) {
    if (t->kind == TokKind::kIdentifier && !t->in_directive &&
        Contains(kUnorderedTypes, t->text)) {
      rep.Report("unordered-decl", t->line, t->col,
                 "'" + t->text +
                     "' in an order-sensitive directory; use an ordered container or "
                     "justify with an allow comment");
    }
  }
}

// Chaos schedules must be a pure function of (config, seed): every Pcg32 in
// chaos code has to be seeded from the plan seed (a variable or a derivation
// like HashCombine(seed, ...)), never from a hard-coded literal -- a literal
// seed is invisible to the dumped schedule and breaks replay.
void CheckChaosRng(const std::vector<const Token*>& sig, Reporter& rep) {
  for (size_t i = 0; i < sig.size(); ++i) {
    const Token* t = sig[i];
    if (t->kind != TokKind::kIdentifier || t->in_directive || t->text != "Pcg32") {
      continue;
    }
    // `Pcg32(...)` temporary or `Pcg32 name(...)` / `Pcg32 name{...}` decl.
    size_t open = i + 1;
    if (open < sig.size() && sig[open]->kind == TokKind::kIdentifier) {
      open++;
    }
    if (open >= sig.size() ||
        (!IsPunct(sig[open], "(") && !IsPunct(sig[open], "{"))) {
      continue;
    }
    if (open + 1 < sig.size() && sig[open + 1]->kind == TokKind::kNumber) {
      rep.Report("chaos-rng", t->line, t->col,
                 "Pcg32 seeded with a literal; derive the seed from the chaos "
                 "plan seed so dumped schedules replay identically");
    }
  }
}

// Protocol code reports each step once, through its node's Emitter, which
// alone feeds the tracer, the fault hook and the cluster's milestones: the
// `trace::` namespace, NoteMilestone and HitPoint belong to emit.* and
// cluster.* only.
void CheckEmitOnly(const FileInput& file, const std::vector<const Token*>& sig,
                   Reporter& rep) {
  if (!rep.RuleEnabled("emit-only") || file.basename.rfind("emit.", 0) == 0 ||
      file.basename.rfind("cluster.", 0) == 0) {
    return;
  }
  for (size_t i = 0; i < sig.size(); ++i) {
    const Token* t = sig[i];
    if (t->kind != TokKind::kIdentifier || t->in_directive) {
      continue;
    }
    bool tracer = t->text == "trace" && i + 1 < sig.size() && IsPunct(sig[i + 1], "::");
    if (tracer || t->text == "NoteMilestone" || t->text == "HitPoint") {
      rep.Report("emit-only", t->line, t->col,
                 "report the step through the node's Emitter (a Step row in "
                 "src/core/emit.cc) instead of reaching the sink directly");
    }
  }
}

// Every message body has one declaration, a struct in wire.h whose field list
// Encode and Decode walk; byte-level packing belongs to the codec, the
// configuration and the ring framing only.
void CheckWireOnly(const FileInput& file, const std::vector<const Token*>& sig,
                   Reporter& rep) {
  static constexpr std::array<std::string_view, 4> kCodecFiles = {"wire.", "config.", "ringlog.",
                                                                  "msgr."};
  static constexpr std::array<std::string_view, 8> kCodecNames = {
      "BufWriter", "BufReader", "PutTxId",      "GetTxId",
      "PutAddr",   "GetAddr",   "PutPlacement", "GetPlacement"};
  if (!rep.RuleEnabled("wire-only")) {
    return;
  }
  for (std::string_view prefix : kCodecFiles) {
    if (file.basename.rfind(prefix, 0) == 0) {
      return;
    }
  }
  for (const Token* t : sig) {
    if (t->kind == TokKind::kIdentifier && !t->in_directive && Contains(kCodecNames, t->text)) {
      rep.Report("wire-only", t->line, t->col,
                 "pack message bytes through a body struct in src/core/wire.h "
                 "(Encode/Decode, Messenger::Send) instead of by hand");
    }
  }
}

void CheckKeyTypes(const std::vector<const Token*>& sig, Reporter& rep) {
  for (size_t i = 0; i + 1 < sig.size(); ++i) {
    const Token* t = sig[i];
    if (t->kind != TokKind::kIdentifier || !Contains(kAssocTypes, t->text)) {
      continue;
    }
    // Require std:: qualification so plain identifiers named `set` or
    // comparisons like `map < n` cannot trip the template scan.
    if (i < 2 || !IsPunct(sig[i - 1], "::") || !IsIdent(sig[i - 2], "std")) {
      continue;
    }
    if (!IsPunct(sig[i + 1], "<")) {
      continue;
    }
    std::vector<const Token*> key;
    if (SkipTemplateArgs(sig, i + 1, &key) == 0 || key.empty()) {
      continue;
    }
    if (IsPunct(key.back(), "*")) {
      rep.Report("ptr-key", t->line, t->col,
                 "std::" + t->text +
                     " keyed by pointer; pointer order differs across runs");
      continue;
    }
    std::vector<const Token*> stripped;
    for (const Token* k : key) {
      if (!IsIdent(k, "const")) {
        stripped.push_back(k);
      }
    }
    if (stripped.size() == 1 &&
        (IsIdent(stripped[0], "float") || IsIdent(stripped[0], "double"))) {
      rep.Report("float-key", t->line, t->col,
                 "std::" + t->text + " keyed by " + stripped[0]->text +
                     "; floating-point keys make ordering fragile");
    }
  }
}

// Flight-recorder records are retained in per-machine rings long past the
// lifetime of everything they describe, so any struct named `*Record` in a
// file that defines or includes the recorder must stay a flat POD: no
// pointer or reference members, no owning containers, no virtuals.
constexpr std::array<std::string_view, 10> kNonPodMemberTypes = {
    "string", "vector",     "unique_ptr", "shared_ptr", "weak_ptr",
    "function", "map",      "set",        "deque",      "list"};

bool UsesFlightRecorder(const FileInput& file) {
  if (file.basename == "flight_recorder.h" || file.basename == "flight_recorder.cc") {
    return true;
  }
  for (const Token& t : file.tokens) {
    if (t.kind == TokKind::kString &&
        t.text.find("flight_recorder.h") != std::string::npos) {
      return true;
    }
  }
  return false;
}

void CheckRecorderPod(const FileInput& file, const std::vector<const Token*>& sig,
                      Reporter& rep) {
  if (!rep.RuleEnabled("recorder-pod") || !UsesFlightRecorder(file)) {
    return;
  }
  for (size_t i = 0; i + 2 < sig.size(); ++i) {
    if (!IsIdent(sig[i], "struct") || sig[i + 1]->kind != TokKind::kIdentifier) {
      continue;
    }
    const std::string& name = sig[i + 1]->text;
    constexpr std::string_view kSuffix = "Record";
    if (name.size() < kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) != 0) {
      continue;
    }
    // Find the body (skip base clauses; `struct FooRecord;` forward decls
    // have none).
    size_t open = i + 2;
    while (open < sig.size() && !IsPunct(sig[open], "{") && !IsPunct(sig[open], ";")) {
      open++;
    }
    if (open >= sig.size() || IsPunct(sig[open], ";")) {
      continue;
    }
    // Walk the body one declaration at a time. A declaration ends at a `;`
    // at struct depth or when a nested brace group closes back to struct
    // depth (method bodies, brace initializers).
    auto check_stmt = [&](size_t b, size_t e) {
      bool has_paren = false;
      for (size_t k = b; k < e; ++k) {
        if (IsPunct(sig[k], "(")) {
          has_paren = true;
          break;
        }
      }
      for (size_t k = b; k < e; ++k) {
        const Token* t = sig[k];
        if (IsIdent(t, "virtual")) {
          rep.Report("recorder-pod", t->line, t->col,
                     "'" + name + "' has a virtual member; records must stay "
                     "trivially copyable");
          return;
        }
        if (!has_paren && t->kind == TokKind::kIdentifier &&
            Contains(kNonPodMemberTypes, t->text)) {
          rep.Report("recorder-pod", t->line, t->col,
                     "'" + name + "' member uses '" + t->text +
                         "'; records must hold only flat scalar data");
          return;
        }
        if (!has_paren &&
            (IsPunct(t, "*") || IsPunct(t, "&") || IsPunct(t, "&&"))) {
          rep.Report("recorder-pod", t->line, t->col,
                     "'" + name + "' has a pointer/reference member; records "
                     "outlive everything they point at");
          return;
        }
      }
    };
    int depth = 1;
    size_t stmt_begin = open + 1;
    for (size_t j = open + 1; j < sig.size() && depth > 0; ++j) {
      if (IsPunct(sig[j], "{")) {
        depth++;
      } else if (IsPunct(sig[j], "}")) {
        depth--;
      }
      if (depth == 0 || (depth == 1 && (IsPunct(sig[j], ";") || IsPunct(sig[j], "}")))) {
        check_stmt(stmt_begin, j);
        stmt_begin = j + 1;
      }
    }
  }
}

void CheckHeaderHygiene(const FileInput& file, const std::vector<const Token*>& sig,
                        Reporter& rep) {
  if (!file.is_header) {
    return;
  }
  // Include guard: the first directives must be `#pragma once` or
  // `#ifndef G` / `#define G`.
  bool guarded = false;
  for (size_t i = 0; i + 2 < sig.size(); ++i) {
    if (!IsPunct(sig[i], "#")) {
      if (sig[i]->in_directive) {
        continue;
      }
      break;  // first non-preprocessor token before any guard: unguarded
    }
    if (IsIdent(sig[i + 1], "pragma") && IsIdent(sig[i + 2], "once")) {
      guarded = true;
      break;
    }
    if (IsIdent(sig[i + 1], "ifndef") && i + 5 < sig.size() &&
        sig[i + 2]->kind == TokKind::kIdentifier && IsPunct(sig[i + 3], "#") &&
        IsIdent(sig[i + 4], "define") && sig[i + 5]->text == sig[i + 2]->text) {
      guarded = true;
      break;
    }
    break;  // some other directive (e.g. #include) leads the file
  }
  if (!guarded && !sig.empty()) {
    rep.Report("include-guard", 1, 1,
               "header lacks a leading include guard (#ifndef/#define pair) or #pragma once");
  }

  for (size_t i = 0; i + 1 < sig.size(); ++i) {
    if (IsIdent(sig[i], "using") && IsIdent(sig[i + 1], "namespace")) {
      rep.Report("using-namespace-header", sig[i]->line, sig[i]->col,
                 "using-directive in a header pollutes every includer's namespace");
    }
  }
}

// Mutable process-wide state breaks the "every sink owned by its Cluster"
// design: two clusters in one process (or on two threads) would share it.
// Flags non-const, non-thread_local variables at namespace scope,
// function-local statics and static data members. Token-level, so it
// approximates: a namespace-scope `T x(args);` reads as a function
// declaration and is not flagged.
enum class Scope { kNamespace, kClass, kFunction, kOther };

// True for a declaration whose specifiers [b, e) make the object itself
// immutable (or per-thread): constexpr, thread_local, or a top-level const
// that follows the last top-level `*` (`const char*` is a mutable pointer;
// `const char* const` is not).
bool DeclIsConstOrThreadLocal(const std::vector<const Token*>& sig, size_t b, size_t e) {
  bool is_const = false;
  int angle = 0;
  for (size_t k = b; k < e; ++k) {
    const Token* t = sig[k];
    if (IsIdent(t, "constexpr") || IsIdent(t, "thread_local")) {
      return true;
    }
    if (IsPunct(t, "<")) {
      angle++;
    } else if (IsPunct(t, ">") || IsPunct(t, ">>")) {
      angle -= IsPunct(t, ">>") ? 2 : 1;
    } else if (angle <= 0 && IsPunct(t, "*")) {
      is_const = false;
    } else if (angle <= 0 && IsIdent(t, "const")) {
      is_const = true;
    }
  }
  return is_const;
}

// Index of the first top-level token in [b, e) that ends a declaration's
// specifiers: `=`, `{`, `(`, `[` or `;` (e if none). Sets `*function` when
// that token is `(` or the declaration names an operator.
size_t DeclSpecEnd(const std::vector<const Token*>& sig, size_t b, size_t e, bool* function) {
  int angle = 0;
  for (size_t k = b; k < e; ++k) {
    const Token* t = sig[k];
    if (IsIdent(t, "operator")) {
      *function = true;
      return k;
    }
    if (IsPunct(t, "<")) {
      angle++;
    } else if (IsPunct(t, ">") || IsPunct(t, ">>")) {
      angle -= IsPunct(t, ">>") ? 2 : 1;
    } else if (angle <= 0 &&
               (IsPunct(t, "=") || IsPunct(t, "{") || IsPunct(t, "(") || IsPunct(t, ";") ||
                // `name[` (array declarator), not an `[[attribute]]`
                (IsPunct(t, "[") && k > b && sig[k - 1]->kind == TokKind::kIdentifier))) {
      *function = IsPunct(t, "(");
      return k;
    }
  }
  *function = false;
  return e;
}

// Scope opened by the `{` at sig[brace], given the statement [stmt, brace)
// before it and the enclosing scope.
Scope ClassifyBrace(const std::vector<const Token*>& sig, size_t stmt, size_t brace,
                    Scope enclosing) {
  if (enclosing == Scope::kFunction || enclosing == Scope::kOther) {
    return Scope::kFunction;  // blocks, lambda bodies, nested initializers
  }
  size_t b = stmt;
  if (b < brace && IsIdent(sig[b], "template")) {
    int angle = 0;
    for (++b; b < brace; ++b) {
      if (IsPunct(sig[b], "<")) {
        angle++;
      } else if (IsPunct(sig[b], ">") || IsPunct(sig[b], ">>")) {
        angle -= IsPunct(sig[b], ">>") ? 2 : 1;
        if (angle <= 0) {
          ++b;
          break;
        }
      }
    }
  }
  if (b >= brace) {
    return Scope::kFunction;  // a body after a constructor's brace-init list
  }
  const Token* first = sig[b];
  for (size_t k = b; k < brace; ++k) {
    if (IsIdent(sig[k], "namespace")) {
      return Scope::kNamespace;  // also `inline namespace`
    }
  }
  if (IsIdent(first, "extern") && b + 1 < brace && sig[b + 1]->kind == TokKind::kString) {
    return Scope::kNamespace;  // extern "C" { ... }
  }
  if (IsIdent(first, "enum")) {
    return Scope::kOther;
  }
  if (IsIdent(first, "class") || IsIdent(first, "struct") || IsIdent(first, "union")) {
    return Scope::kClass;
  }
  bool function = false;
  size_t end = DeclSpecEnd(sig, b, brace, &function);
  if (end < brace && IsPunct(sig[end], "=")) {
    return Scope::kOther;  // `T x = {...}`
  }
  return function ? Scope::kFunction : Scope::kOther;  // `T x{...}` otherwise
}

// A namespace-scope statement [b, e) ended by `;` or a brace initializer.
void CheckNamespaceDecl(const std::vector<const Token*>& sig, size_t b, size_t e,
                        Reporter& rep) {
  if (b >= e) {
    return;
  }
  constexpr std::array<std::string_view, 10> kNonVariableLeads = {
      "using",  "typedef", "namespace", "template",      "class",
      "struct", "union",   "enum",      "static_assert", "friend"};
  if (Contains(kNonVariableLeads, sig[b]->text)) {
    return;
  }
  bool function = false;
  size_t end = DeclSpecEnd(sig, b, e, &function);
  if (function || DeclIsConstOrThreadLocal(sig, b, end)) {
    return;
  }
  rep.Report("mutable-global", sig[b]->line, sig[b]->col,
             "mutable namespace-scope variable; make it const/constexpr, per-thread "
             "(thread_local) simulation state, or a member of its Cluster");
}

// A `static` at sig[i] starting a statement in a function body or class.
void CheckStaticDecl(const std::vector<const Token*>& sig, size_t i, bool in_function,
                     Reporter& rep) {
  bool function = false;
  size_t end = DeclSpecEnd(sig, i + 1, sig.size(), &function);
  if ((function && !in_function) || DeclIsConstOrThreadLocal(sig, i + 1, end)) {
    return;
  }
  rep.Report("mutable-global", sig[i]->line, sig[i]->col,
             in_function ? "mutable function-local static; state that outlives the call "
                           "must be owned by its Cluster or be thread_local"
                         : "mutable static data member; state shared by every instance "
                           "must be owned by its Cluster or be thread_local");
}

void CheckMutableGlobal(const std::vector<const Token*>& all, Reporter& rep) {
  if (!rep.RuleEnabled("mutable-global")) {
    return;
  }
  std::vector<const Token*> sig;
  for (const Token* t : all) {
    if (!t->in_directive) {
      sig.push_back(t);
    }
  }
  // Braces inside parentheses (`f(Options{})`, lambda arguments) belong to
  // an expression: they neither end the statement nor open a declaration
  // scope of their own, and the statements of a lambda body inside them
  // leave the enclosing statement's start where it was.
  struct Open {
    Scope scope;
    bool in_expr;
    int parens;   // paren depth to restore on close, for in_expr braces
    size_t stmt;  // statement start to restore on close, for in_expr braces
  };
  std::vector<Open> open;  // empty: file scope
  auto current = [&open] { return open.empty() ? Scope::kNamespace : open.back().scope; };
  size_t stmt = 0;  // first token of the current statement
  int parens = 0;
  for (size_t i = 0; i < sig.size(); ++i) {
    const Token* t = sig[i];
    if (IsPunct(t, "(")) {
      parens++;
    } else if (IsPunct(t, ")")) {
      parens--;
    } else if (IsPunct(t, "{") && parens > 0) {
      open.push_back({Scope::kFunction, true, parens, stmt});
      parens = 0;
    } else if (IsPunct(t, "{")) {
      Scope s = ClassifyBrace(sig, stmt, i, current());
      if (s == Scope::kOther && current() == Scope::kNamespace) {
        CheckNamespaceDecl(sig, stmt, i, rep);
      }
      open.push_back({s, false, 0, 0});
      stmt = i + 1;
    } else if (IsPunct(t, "}")) {
      if (!open.empty() && open.back().in_expr) {
        parens = open.back().parens;
        stmt = open.back().stmt;
      } else {
        stmt = i + 1;
        parens = 0;
      }
      if (!open.empty()) {
        open.pop_back();
      }
    } else if (IsPunct(t, ";")) {
      if (current() == Scope::kNamespace) {
        CheckNamespaceDecl(sig, stmt, i, rep);
      }
      stmt = i + 1;
      parens = 0;
    } else if (IsPunct(t, ":") && i > 0 &&
               (IsIdent(sig[i - 1], "public") || IsIdent(sig[i - 1], "private") ||
                IsIdent(sig[i - 1], "protected"))) {
      stmt = i + 1;
    } else if (i == stmt && IsIdent(t, "static") &&
               (current() == Scope::kFunction || current() == Scope::kClass)) {
      CheckStaticDecl(sig, i, current() == Scope::kFunction, rep);
    }
  }
}

// A `co_await` after the `?` of a conditional expression, up to the end of
// that expression: a `;`, a depth-0 `,`, or a bracket closing around it. An
// await in the condition operand runs unconditionally and is not flagged.
void CheckAwaitInConditional(const std::vector<const Token*>& sig, Reporter& rep) {
  if (!rep.RuleEnabled("await-in-conditional")) {
    return;
  }
  for (size_t q = 0; q < sig.size(); ++q) {
    if (!IsPunct(sig[q], "?") || sig[q]->in_directive) {
      continue;
    }
    int depth = 0;
    for (size_t i = q + 1; i < sig.size(); ++i) {
      const Token* t = sig[i];
      if (IsPunct(t, "(") || IsPunct(t, "[") || IsPunct(t, "{")) {
        depth++;
      } else if (IsPunct(t, ")") || IsPunct(t, "]") || IsPunct(t, "}")) {
        if (--depth < 0) {
          break;
        }
      } else if (IsPunct(t, ";") || (depth == 0 && IsPunct(t, ","))) {
        break;
      } else if (IsIdent(t, "co_await")) {
        rep.Report("await-in-conditional", t->line, t->col,
                   "co_await in a branch of ?:; assign the awaited result in an if/else");
      }
    }
  }
}

// Suppression hygiene: an allow() naming an unknown rule silently suppresses
// nothing and usually means a typo left a real diagnostic unguarded.
void CheckAllowHygiene(const FileInput& file, Reporter& rep) {
  for (const AllowName& a : ParseAllowNames(file.tokens)) {
    if (!IsKnownRule(a.rule)) {
      rep.Report("bad-allow", a.line, a.col,
                 "allow() names unknown rule '" + a.rule +
                     "'; see farmlint --list-rules");
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& AllRules() { return kRules; }

bool IsKnownRule(const std::string& name) {
  for (const RuleInfo& r : kRules) {
    if (name == r.name) {
      return true;
    }
  }
  return false;
}

void Linter::CollectDeclarations(const FileInput& file) {
  std::vector<const Token*> sig = Significant(file.tokens);
  for (size_t i = 0; i < sig.size(); ++i) {
    const Token* t = sig[i];
    if (t->kind != TokKind::kIdentifier || t->in_directive ||
        !Contains(kUnorderedTypes, t->text)) {
      continue;
    }
    if (i + 1 >= sig.size() || !IsPunct(sig[i + 1], "<")) {
      continue;
    }
    size_t after = SkipTemplateArgs(sig, i + 1, nullptr);
    if (after == 0) {
      continue;
    }
    // Skip declarator decorations, then expect `name` followed by a
    // declaration terminator. This intentionally misses aliases; it only
    // needs to catch variable and member declarations.
    while (after < sig.size() &&
           (IsPunct(sig[after], "&") || IsPunct(sig[after], "*") ||
            IsPunct(sig[after], "&&") || IsIdent(sig[after], "const"))) {
      after++;
    }
    if (after + 1 >= sig.size() || sig[after]->kind != TokKind::kIdentifier) {
      continue;
    }
    const Token* term = sig[after + 1];
    if (IsPunct(term, ";") || IsPunct(term, "=") || IsPunct(term, "{") ||
        IsPunct(term, ",") || IsPunct(term, ")")) {
      const std::string& name = sig[after]->text;
      if (name.back() == '_') {
        unordered_names_.insert(name);  // member: visible repo-wide
      } else {
        local_unordered_names_[file.path].insert(name);
      }
    }
  }
  // Annotation index: accessors marked `// farmlint: stable` in any input
  // file are exempt from await-hazard provenance everywhere.
  std::set<std::string> stable = CollectStableAnnotations(file, nullptr);
  stable_names_.insert(stable.begin(), stable.end());
}

std::vector<Diagnostic> Linter::Lint(const FileInput& file,
                                     const FileConfig& config) const {
  std::vector<Diagnostic> out;
  Reporter rep(file.path, file.tokens, config.rules, out);
  std::vector<const Token*> sig = Significant(file.tokens);
  CheckWallClockAndRand(file, sig, rep);
  std::set<std::string> unordered = unordered_names_;
  auto locals = local_unordered_names_.find(file.path);
  if (locals != local_unordered_names_.end()) {
    unordered.insert(locals->second.begin(), locals->second.end());
  }
  CheckUnorderedIter(sig, unordered, rep);
  CheckUnorderedDecl(sig, rep);
  CheckChaosRng(sig, rep);
  CheckEmitOnly(file, sig, rep);
  CheckWireOnly(file, sig, rep);
  CheckKeyTypes(sig, rep);
  CheckRecorderPod(file, sig, rep);
  CheckMutableGlobal(sig, rep);
  CheckAwaitInConditional(sig, rep);
  CheckHeaderHygiene(file, sig, rep);
  CheckAllowHygiene(file, rep);
  if (rep.RuleEnabled("bad-allow")) {
    CollectStableAnnotations(file, &rep);  // validation only; index is global
  }
  AnalyzeAwaitSafety(file, config.await, stable_names_, rep);
  std::sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.line, a.rule, a.col) < std::tie(b.line, b.rule, b.col);
  });
  // De-duplicate repeated reports of one rule on one line (e.g. a macro that
  // expands the same hazard several times): keep the first (smallest column).
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Diagnostic& a, const Diagnostic& b) {
                          return a.line == b.line && a.rule == b.rule;
                        }),
            out.end());
  return out;
}

}  // namespace farmlint
