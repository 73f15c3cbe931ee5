#include "tools/farmlint/analyzer.h"

#include <algorithm>
#include <array>
#include <string_view>

#include "tools/farmlint/rules.h"

namespace farmlint {
namespace {

template <typename Arr>
bool Contains(const Arr& arr, std::string_view s) {
  return std::find(arr.begin(), arr.end(), s) != arr.end();
}

// Starting at sig[open] == "<", returns the index just past the matching ">"
// (treating ">>" as two closers), or 0 if unbalanced/too long.
size_t SkipAngles(const std::vector<const Token*>& sig, size_t open) {
  int depth = 0;
  constexpr size_t kMaxSpan = 512;
  for (size_t i = open; i < sig.size() && i < open + kMaxSpan; ++i) {
    const Token* t = sig[i];
    if (IsPunct(t, "<")) {
      depth++;
    } else if (IsPunct(t, ">") || IsPunct(t, ">>")) {
      depth -= IsPunct(t, ">>") ? 2 : 1;
      if (depth <= 0) {
        return i + 1;
      }
    } else if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) {
      return 0;  // a comparison, not a template argument list
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Scope tree
// ---------------------------------------------------------------------------

enum class ScopeKind { kFile, kNamespace, kClass, kFunction, kBlock };

struct Scope {
  ScopeKind kind = ScopeKind::kFile;
  int parent = -1;
  int function = -1;      // index of the innermost enclosing function scope
  size_t open = 0;        // sig index of the '{' (0 for the file scope)
  size_t close = 0;       // sig index of the matching '}' (sig.size() if none)
};

// Walks backwards from sig[open] == '{' to the start of the statement that
// introduced it: the token after the previous ';'/'{'/'}' at paren level 0.
// Walking out of an enclosing '(' also stops (for-header semicolons live at
// paren depth > 0 and must not terminate the walk early... they cannot:
// depth is counted from the '{', which is never inside those parens).
size_t StatementStart(const std::vector<const Token*>& sig, size_t open) {
  int pdepth = 0;
  size_t j = open;
  while (j > 0) {
    const Token* t = sig[j - 1];
    if (IsPunct(t, ")")) {
      pdepth++;
    } else if (IsPunct(t, "(")) {
      if (pdepth == 0) {
        break;  // exited an enclosing paren: statement starts here
      }
      pdepth--;
    } else if (pdepth == 0 &&
               (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}"))) {
      break;
    }
    j--;
  }
  return j;
}

constexpr std::array<std::string_view, 8> kControlKw = {
    "if", "for", "while", "switch", "catch", "do", "else", "try"};
constexpr std::array<std::string_view, 4> kClassKw = {"class", "struct", "union",
                                                     "enum"};
// Tokens that can trail a function signature before its body: cv/ref
// qualifiers, exception/virtual specifiers, and trailing-return-type tokens.
constexpr std::array<std::string_view, 7> kSigTrailerKw = {
    "const", "noexcept", "override", "final", "mutable", "requires", "throw"};

ScopeKind ClassifyBrace(const std::vector<const Token*>& sig, size_t open) {
  size_t start = StatementStart(sig, open);
  if (start == open) {
    return ScopeKind::kBlock;
  }
  const Token* first = sig[start];
  if (first->kind == TokKind::kIdentifier && Contains(kControlKw, first->text)) {
    return ScopeKind::kBlock;
  }
  if (IsIdent(first, "case") || IsIdent(first, "default")) {
    return ScopeKind::kBlock;
  }
  bool has_namespace = false;
  bool has_class_kw = false;
  bool has_assign = false;
  int pdepth = 0;
  for (size_t j = start; j < open; ++j) {
    const Token* t = sig[j];
    if (IsPunct(t, "(")) {
      pdepth++;
    } else if (IsPunct(t, ")")) {
      pdepth--;
    } else if (pdepth == 0) {
      if (IsIdent(t, "namespace")) {
        has_namespace = true;
      } else if (t->kind == TokKind::kIdentifier && Contains(kClassKw, t->text)) {
        has_class_kw = true;
      } else if (IsPunct(t, "=")) {
        has_assign = true;
      }
    }
  }
  if (has_namespace) {
    return ScopeKind::kNamespace;
  }
  // Strip signature trailers, then look for the ')' (function/lambda with
  // parameter list) or ']' (parameterless lambda) that precedes the body.
  size_t j = open;
  while (j > start) {
    const Token* t = sig[j - 1];
    bool skip = t->kind == TokKind::kIdentifier &&
                (Contains(kSigTrailerKw, t->text) || !Contains(kClassKw, t->text));
    skip = skip || t->kind == TokKind::kNumber || IsPunct(t, "::") ||
           IsPunct(t, "<") || IsPunct(t, ">") || IsPunct(t, ">>") ||
           IsPunct(t, "*") || IsPunct(t, "&") || IsPunct(t, "&&") ||
           IsPunct(t, "->");
    if (!skip) {
      break;
    }
    j--;
  }
  if (j > start && IsPunct(sig[j - 1], ")")) {
    return ScopeKind::kFunction;
  }
  if (j > start && IsPunct(sig[j - 1], "]") && !has_assign) {
    return ScopeKind::kFunction;  // `[captures] { ... }` lambda
  }
  if (j > start && IsPunct(sig[j - 1], "]") && has_assign) {
    // Could be `auto l = [&] {` (lambda) or `int a[] = {` (aggregate init):
    // a capture list's '[' is preceded by '=' or ',' or '(' or statement
    // start; an array declarator's '[' is preceded by the array name.
    for (size_t k = j - 1; k > start; --k) {
      if (IsPunct(sig[k - 1], "[")) {
        const Token* before = k >= 2 ? sig[k - 2] : nullptr;
        if (before == nullptr || before->kind != TokKind::kIdentifier) {
          return ScopeKind::kFunction;
        }
        break;
      }
    }
  }
  if (has_class_kw) {
    return ScopeKind::kClass;
  }
  return ScopeKind::kBlock;
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct Decl {
  std::string name;
  size_t name_tok = 0;       // sig index of the declared name
  size_t init_begin = 0;     // token range of the initializer (0,0 if none)
  size_t init_end = 0;
  int scope = 0;             // scope the declaration lives in
  bool is_ptr = false;       // declared T* / auto*
  bool is_ref = false;       // declared T& / auto&
  bool is_auto = false;      // type is plain `auto`
  bool is_iterator_type = false;  // spelled ...::iterator / ...::const_iterator
  bool is_value = false;     // plain by-value object (candidate frame owner)
  std::string type_last;     // last identifier of the type (guard matching)
};

constexpr std::array<std::string_view, 22> kNotADeclLeader = {
    "return", "co_return", "co_await", "co_yield", "delete",  "throw",
    "goto",   "break",     "continue", "case",     "default", "using",
    "typedef", "template",  "friend",   "public",   "private", "protected",
    "else",   "do",        "new",      "operator"};

// Tries to parse a declaration from sig[s, e). Returns true and fills `d`
// when the statement (or for/if header fragment) declares a named variable.
bool ParseDecl(const std::vector<const Token*>& sig, size_t s, size_t e, Decl* d) {
  // Skip statement-introducer noise: `for (`, `if (`, `while (`, and leading
  // cv/storage specifiers.
  while (s < e) {
    const Token* t = sig[s];
    if (t->kind == TokKind::kIdentifier &&
        (Contains(kControlKw, t->text) || t->text == "static" ||
         t->text == "constexpr" || t->text == "const")) {
      s++;
      continue;
    }
    if (IsPunct(t, "(") || IsPunct(t, "{")) {
      s++;
      continue;
    }
    break;
  }
  if (s >= e || sig[s]->kind != TokKind::kIdentifier) {
    return false;
  }
  if (Contains(kNotADeclLeader, sig[s]->text)) {
    return false;
  }
  // Type: identifier chain with :: and template arguments. An identifier is
  // part of the type when what follows can continue a type (another
  // identifier, '::', template arguments) or start a declarator ('*', '&');
  // otherwise it is the candidate declared name and the chain ends.
  size_t i = s;
  std::string last_ident;
  bool saw_type = false;
  while (i < e) {
    const Token* t = sig[i];
    if (t->kind == TokKind::kIdentifier) {
      if (Contains(kNotADeclLeader, t->text)) {
        return false;
      }
      size_t nxt = i + 1;
      if (nxt < e && IsPunct(sig[nxt], "<")) {
        size_t after = SkipAngles(sig, nxt);
        if (after != 0) {
          last_ident = t->text;
          saw_type = true;
          i = after;
          continue;
        }
        break;  // a comparison: this identifier is the candidate name
      }
      bool type_continues =
          nxt < e && (sig[nxt]->kind == TokKind::kIdentifier || IsPunct(sig[nxt], "::"));
      bool declarator_next = nxt < e && (IsPunct(sig[nxt], "*") ||
                                         IsPunct(sig[nxt], "&") || IsPunct(sig[nxt], "&&"));
      if (type_continues || declarator_next) {
        last_ident = t->text;
        saw_type = true;
        i = nxt;
        continue;
      }
      break;  // this identifier is the candidate declared name
    }
    if (IsPunct(t, "::")) {
      i++;
      continue;
    }
    break;
  }
  if (!saw_type || i >= e) {
    return false;
  }
  // Declarator decorations between the type chain and the name.
  bool is_ptr = false;
  bool is_ref = false;
  while (i < e && (IsPunct(sig[i], "*") || IsPunct(sig[i], "&") ||
                   IsPunct(sig[i], "&&") || IsIdent(sig[i], "const"))) {
    if (IsPunct(sig[i], "*")) {
      is_ptr = true;
    } else if (IsPunct(sig[i], "&") || IsPunct(sig[i], "&&")) {
      is_ref = true;
    }
    i++;
  }
  if (i >= e || sig[i]->kind != TokKind::kIdentifier) {
    return false;
  }
  const std::string& name = sig[i]->text;
  size_t after_name = i + 1;
  // A declaration is terminated by an initializer or the statement end. A
  // '(' / '{' after the name is a constructor-style initializer; anything
  // else (., ->, [, operators) means this was an expression, not a decl.
  size_t init_b = 0;
  size_t init_e = 0;
  if (after_name < e) {
    const Token* t = sig[after_name];
    if (IsPunct(t, "=")) {
      if (after_name + 1 < e && IsPunct(sig[after_name + 1], "=")) {
        return false;  // `a == b`
      }
      init_b = after_name + 1;
      init_e = e;
    } else if (IsPunct(t, "(") || IsPunct(t, "{")) {
      init_b = after_name + 1;
      init_e = e;
    } else if (!IsPunct(t, ",") && !IsPunct(t, ")")) {
      return false;
    }
  }
  d->name = name;
  d->name_tok = i;
  d->init_begin = init_b;
  d->init_end = init_e;
  d->is_ptr = is_ptr;
  d->is_ref = is_ref;
  d->is_auto = last_ident == "auto";
  d->is_iterator_type = last_ident == "iterator" || last_ident == "const_iterator";
  d->is_value = !is_ptr && !is_ref;
  d->type_last = last_ident;
  return true;
}

// One unstable-accessor hit inside an initializer expression.
struct Provenance {
  bool hit = false;
  std::string accessor;     // e.g. "Placement", "find", "operator[]"
  Yield yield = Yield::kReference;
  std::string receiver;     // simple receiver identifier ("" if none/complex)
  std::string container;    // receiver for iterator tracking (same as above)
};

// Scans an initializer for calls to unstable accessors and for subscripts.
// Returns the first hit whose receiver is not exempted by `stable_locals`
// (locals owned by this coroutine frame); if every hit is exempt, returns
// the first exempt hit with hit=false but container filled (so the iterator
// rule can still track it).
Provenance ScanInit(const std::vector<const Token*>& sig, size_t b, size_t e,
                    const AwaitConfig& config, const std::set<std::string>& stable_names,
                    const std::set<std::string>& value_locals, Provenance* exempt) {
  Provenance none;
  for (size_t i = b; i < e && i < sig.size(); ++i) {
    const Token* t = sig[i];
    // Member/free call `name(` where name is an unstable accessor.
    if (t->kind == TokKind::kIdentifier && i + 1 < e && IsPunct(sig[i + 1], "(")) {
      auto it = config.unstable.find(t->text);
      if (it == config.unstable.end() || stable_names.count(t->text) != 0) {
        continue;
      }
      Provenance p;
      p.hit = true;
      p.accessor = t->text;
      p.yield = it->second;
      if (i >= 2 && (IsPunct(sig[i - 1], ".") || IsPunct(sig[i - 1], "->")) &&
          sig[i - 2]->kind == TokKind::kIdentifier) {
        p.receiver = sig[i - 2]->text;
        p.container = p.receiver;
        // Dot-calls on a by-value local are frame-owned: the coroutine frame
        // keeps the container alive across suspension. (Arrow access means
        // the local is a pointer, so the pointee is NOT frame-owned; and
        // mutation while an iterator is live is iterator-invalidate's
        // business.)
        bool member_access = i >= 3 && (IsPunct(sig[i - 3], ".") || IsPunct(sig[i - 3], "->"));
        if (!member_access && IsPunct(sig[i - 1], ".") &&
            value_locals.count(p.receiver) != 0) {
          if (exempt != nullptr && !exempt->hit) {
            *exempt = p;
            exempt->hit = false;
          }
          continue;
        }
      }
      return p;
    }
    // Subscript `recv[...]` yields a reference into the container.
    if (IsPunct(t, "[") && i > b && sig[i - 1]->kind == TokKind::kIdentifier) {
      const std::string& recv = sig[i - 1]->text;
      Provenance p;
      p.hit = true;
      p.accessor = "operator[]";
      p.yield = Yield::kReference;
      p.receiver = recv;
      p.container = recv;
      bool member_access =
          i >= 2 && i - 1 > b && (IsPunct(sig[i - 2], ".") || IsPunct(sig[i - 2], "->"));
      if (!member_access && value_locals.count(recv) != 0) {
        if (exempt != nullptr && !exempt->hit) {
          *exempt = p;
          exempt->hit = false;
        }
        continue;
      }
      return p;
    }
  }
  return none;
}

constexpr std::array<std::string_view, 17> kMutators = {
    "insert",       "erase",      "emplace",   "emplace_back", "emplace_front",
    "push_back",    "push_front", "pop_back",  "pop_front",    "clear",
    "resize",       "rehash",     "reserve",   "assign",       "shrink_to_fit",
    "try_emplace",  "insert_or_assign"};

const char* YieldName(Yield y) {
  switch (y) {
    case Yield::kPointer:
      return "pointer";
    case Yield::kIterator:
      return "iterator";
    case Yield::kReference:
      return "reference";
  }
  return "?";
}

}  // namespace

AwaitConfig DefaultAwaitConfig() {
  AwaitConfig c;
  c.unstable = {
      {"Placement", Yield::kPointer},  // config_.Placement(): freed on reconfig
      {"find", Yield::kIterator},      {"lower_bound", Yield::kIterator},
      {"upper_bound", Yield::kIterator}, {"equal_range", Yield::kIterator},
      {"begin", Yield::kIterator},     {"end", Yield::kIterator},
      {"cbegin", Yield::kIterator},    {"cend", Yield::kIterator},
      {"rbegin", Yield::kIterator},    {"rend", Yield::kIterator},
      {"at", Yield::kReference},       {"front", Yield::kReference},
      {"back", Yield::kReference},     {"top", Yield::kReference},
      {"data", Yield::kPointer},
  };
  c.guards = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  return c;
}

std::set<std::string> CollectStableAnnotations(const FileInput& file, Reporter* rep) {
  std::set<std::string> names;
  // Code lines, for the comment -> declaration binding walk.
  std::set<int> code_lines;
  std::map<int, std::vector<const Token*>> by_line;
  for (const Token& t : file.tokens) {
    if (t.kind != TokKind::kComment && t.kind != TokKind::kEof) {
      code_lines.insert(t.line);
      by_line[t.line].push_back(&t);
    }
  }
  // A comment line is an annotation only when, after the comment markers,
  // it STARTS with `farmlint: stable` followed by nothing or a `:`
  // justification. Mid-line mentions (docs quoting the annotation) don't
  // count.
  auto annotation_lines = [](const Token& t) {
    std::vector<int> lines;
    std::string_view text = t.text;
    int offset = 0;
    while (!text.empty()) {
      size_t nl = text.find('\n');
      std::string_view line = text.substr(0, nl);
      while (!line.empty() &&
             (line.front() == ' ' || line.front() == '\t' || line.front() == '/' ||
              line.front() == '*')) {
        line.remove_prefix(1);
      }
      constexpr std::string_view kDirective = "farmlint: stable";
      if (line.substr(0, kDirective.size()) == kDirective) {
        std::string_view rest = line.substr(kDirective.size());
        if (rest.empty() || rest.front() == ' ' || rest.front() == ':' ||
            rest.front() == '\r') {
          lines.push_back(t.line + offset);
        }
      }
      if (nl == std::string_view::npos) {
        break;
      }
      text.remove_prefix(nl + 1);
      offset++;
    }
    return lines;
  };
  auto bind_annotation = [&](const Token& t, int ann_line) {
    // Bind to the declaration on the comment's own line (trailing form) or
    // the first code line within reach (preceding form).
    int bound_line = 0;
    if (code_lines.count(ann_line) != 0) {
      bound_line = ann_line;
    } else {
      constexpr int kMaxReach = 8;
      for (int l = ann_line + 1; l <= ann_line + kMaxReach; ++l) {
        if (code_lines.count(l) != 0) {
          bound_line = l;
          break;
        }
      }
    }
    std::string accessor;
    if (bound_line != 0) {
      // The accessor is the last identifier directly followed by '(' on the
      // bound line: `const RegionPlacement* Placement(RegionId r) const;`.
      const std::vector<const Token*>& toks = by_line[bound_line];
      for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i]->kind == TokKind::kIdentifier && IsPunct(toks[i + 1], "(")) {
          accessor = toks[i]->text;
        }
      }
    }
    if (accessor.empty()) {
      if (rep != nullptr) {
        rep->Report("bad-allow", ann_line, t.col,
                    "'farmlint: stable' annotation does not precede an accessor "
                    "declaration (expected `name(...)` on this or the next line)");
      }
      return;
    }
    names.insert(accessor);
  };
  for (const Token& t : file.tokens) {
    if (t.kind != TokKind::kComment) {
      continue;
    }
    for (int ann_line : annotation_lines(t)) {
      bind_annotation(t, ann_line);
    }
  }
  return names;
}

void AnalyzeAwaitSafety(const FileInput& file, const AwaitConfig& config,
                        const std::set<std::string>& stable_names, Reporter& rep) {
  if (!rep.RuleEnabled("await-hazard") && !rep.RuleEnabled("lock-across-await") &&
      !rep.RuleEnabled("iterator-invalidate")) {
    return;
  }
  std::vector<const Token*> sig = Significant(file.tokens);

  // -------------------------------------------------------------------------
  // Pass 1: scope tree + per-token scope ids + statement ids.
  // -------------------------------------------------------------------------
  std::vector<Scope> scopes;
  scopes.push_back(Scope{ScopeKind::kFile, -1, -1, 0, sig.size()});
  std::vector<int> scope_of(sig.size(), 0);
  std::vector<int> stmt_of(sig.size(), 0);
  std::vector<int> stack = {0};
  int stmt = 0;
  for (size_t i = 0; i < sig.size(); ++i) {
    const Token* t = sig[i];
    if (IsPunct(t, "{") && !t->in_directive) {
      Scope s;
      s.kind = ClassifyBrace(sig, i);
      s.parent = stack.back();
      s.function = s.kind == ScopeKind::kFunction ? static_cast<int>(scopes.size())
                                                  : scopes[s.parent].function;
      s.open = i;
      s.close = sig.size();
      scope_of[i] = stack.back();
      stack.push_back(static_cast<int>(scopes.size()));
      scopes.push_back(s);
      stmt++;
      continue;
    }
    if (IsPunct(t, "}") && !t->in_directive) {
      if (stack.size() > 1) {
        scopes[stack.back()].close = i;
        stack.pop_back();
      }
      scope_of[i] = stack.back();
      stmt++;
      continue;
    }
    scope_of[i] = stack.back();
    stmt_of[i] = stmt;
    if (IsPunct(t, ";")) {
      stmt++;
    }
  }

  // -------------------------------------------------------------------------
  // Pass 2: suspension points.
  // -------------------------------------------------------------------------
  struct Await {
    size_t tok;
    int function;  // innermost function scope (-1 if at file/class level)
  };
  std::vector<Await> awaits;
  for (size_t i = 0; i < sig.size(); ++i) {
    if (IsIdent(sig[i], "co_await") && !sig[i]->in_directive) {
      awaits.push_back(Await{i, scopes[scope_of[i]].function});
    }
  }

  // -------------------------------------------------------------------------
  // Pass 3: declarations, per statement, inside function scopes only.
  // -------------------------------------------------------------------------
  std::vector<Decl> decls;
  {
    size_t s = 0;
    for (size_t i = 0; i <= sig.size(); ++i) {
      bool boundary = i == sig.size() || IsPunct(sig[i], ";") ||
                      IsPunct(sig[i], "{") || IsPunct(sig[i], "}");
      if (!boundary) {
        continue;
      }
      if (i > s) {
        int sc = scope_of[s];
        // Only function-body statements declare locals we track. Class and
        // namespace scopes hold members/globals, whose lifetime rules
        // differ; skip them to avoid member-decl false positives.
        if (scopes[sc].function >= 0 || scopes[sc].kind == ScopeKind::kFunction) {
          Decl d;
          if (ParseDecl(sig, s, i, &d)) {
            d.scope = sc;
            decls.push_back(d);
          }
        }
      }
      s = i + 1;
    }
  }

  // Value locals per function scope: receivers owned by the coroutine frame.
  // `auto` (no * or &) counts: it copies/moves into the frame. If the
  // initializer deduced a pointer type, dot-access on it would not compile,
  // and ScanInit only exempts dot-access receivers.
  std::map<int, std::set<std::string>> value_locals_by_fn;
  for (const Decl& d : decls) {
    if (d.is_value) {
      value_locals_by_fn[scopes[d.scope].function].insert(d.name);
    }
  }

  auto uses_of = [&](const Decl& d) {
    std::vector<size_t> uses;
    size_t end = scopes[d.scope].close;
    size_t from = d.init_end != 0
                      ? d.init_end
                      : d.name_tok + 1;
    for (size_t i = from; i < end && i < sig.size(); ++i) {
      if (sig[i]->kind == TokKind::kIdentifier && sig[i]->text == d.name) {
        uses.push_back(i);
      }
    }
    return uses;
  };

  // -------------------------------------------------------------------------
  // await-hazard + lock-across-await + iterator-invalidate
  // -------------------------------------------------------------------------
  for (const Decl& d : decls) {
    int fn = scopes[d.scope].function;

    // lock-across-await: RAII guard live (in scope) across a suspension.
    if (config.guards.count(d.type_last) != 0) {
      size_t scope_end = scopes[d.scope].close;
      for (const Await& a : awaits) {
        if (a.tok > d.name_tok && a.tok < scope_end && a.function == fn &&
            stmt_of[a.tok] != stmt_of[d.name_tok]) {
          rep.Report("lock-across-await", sig[d.name_tok]->line, sig[d.name_tok]->col,
                     "lock guard '" + d.name + "' ('" + d.type_last +
                         "') is held across the co_await at line " +
                         std::to_string(sig[a.tok]->line) +
                         "; scope the guard to end before suspending");
          break;
        }
      }
      continue;
    }

    if (d.init_begin == 0) {
      continue;  // provenance rules need an initializer
    }
    const std::set<std::string>& value_locals = value_locals_by_fn[fn];
    Provenance exempt;
    Provenance p = ScanInit(sig, d.init_begin, d.init_end, config, stable_names,
                            value_locals, &exempt);

    // await-hazard. The value a use reads comes from the latest assignment
    // ("producer") before it: the declaration's initializer, or a later
    // `name = ...` re-resolve (pointers/iterators only; assigning through a
    // reference writes the referent and is itself a use). A use after a
    // co_await is hazardous when its producer ran before that await and
    // derived from an unstable accessor.
    std::vector<size_t> uses = uses_of(d);
    struct Producer {
      size_t pos;
      Provenance prov;
    };
    std::vector<Producer> producers = {{d.name_tok, p}};
    std::set<size_t> reassign_lhs;
    if (!d.is_ref) {
      for (size_t u : uses) {
        bool lhs = u + 1 < sig.size() && IsPunct(sig[u + 1], "=") &&
                   !(u + 2 < sig.size() && IsPunct(sig[u + 2], "=")) &&
                   !(u >= 1 && IsPunct(sig[u - 1], "*"));
        if (!lhs) {
          continue;
        }
        size_t rb = u + 2;
        size_t re = rb;
        while (re < sig.size() && stmt_of[re] == stmt_of[u] && !IsPunct(sig[re], ";")) {
          re++;
        }
        producers.push_back(
            {u, ScanInit(sig, rb, re, config, stable_names, value_locals, nullptr)});
        reassign_lhs.insert(u);
      }
    }
    bool shape_fixed = d.is_ptr || d.is_ref || d.is_iterator_type;
    bool reported = false;
    for (const Await& a : awaits) {
      if (reported) {
        break;
      }
      if (a.tok <= d.name_tok || a.function != fn) {
        continue;
      }
      for (size_t u : uses) {
        if (u <= a.tok || reassign_lhs.count(u) != 0) {
          continue;  // not a read, or read before this suspension
        }
        const Producer* prod = &producers[0];
        for (const Producer& pr : producers) {
          if (pr.pos < u && pr.pos >= prod->pos) {
            prod = &pr;
          }
        }
        if (prod->pos >= a.tok || !prod->prov.hit ||
            stmt_of[a.tok] == stmt_of[prod->pos]) {
          continue;  // value (re-)resolved after resuming, or stable source
        }
        bool shape = shape_fixed || (d.is_auto && prod->prov.yield != Yield::kReference);
        if (!shape) {
          continue;
        }
        const Provenance& pv = prod->prov;
        rep.Report(
            "await-hazard", sig[d.name_tok]->line, sig[d.name_tok]->col,
            "'" + d.name + "' (" + YieldName(pv.yield) + " from unstable accessor '" +
                pv.accessor + (pv.receiver.empty() ? "" : "' on '" + pv.receiver) +
                "') is used after the co_await at line " +
                std::to_string(sig[a.tok]->line) +
                "; re-resolve it after resuming or mark the accessor "
                "'// farmlint: stable'");
        reported = true;
        break;
      }
    }

    // iterator-invalidate: container mutated while an iterator/reference
    // into it is live in the same scope and used again afterwards.
    const Provenance& src = p.hit ? p : exempt;
    bool iter_shape = d.is_ptr || d.is_ref || d.is_iterator_type ||
                      (d.is_auto && !src.accessor.empty() &&
                       src.yield != Yield::kReference);
    if (!src.container.empty() && iter_shape) {
      // Mutation events on the source container within the decl's scope.
      size_t scope_end = scopes[d.scope].close;
      struct Mut {
        size_t tok;
        std::string method;
      };
      std::vector<Mut> muts;
      for (size_t i = d.name_tok + 1; i < scope_end && i + 3 < sig.size(); ++i) {
        if (sig[i]->kind == TokKind::kIdentifier && sig[i]->text == src.container &&
            (IsPunct(sig[i + 1], ".") || IsPunct(sig[i + 1], "->")) &&
            sig[i + 2]->kind == TokKind::kIdentifier &&
            Contains(kMutators, sig[i + 2]->text) && IsPunct(sig[i + 3], "(")) {
          muts.push_back(Mut{i + 2, sig[i + 2]->text});
        }
      }
      if (!muts.empty() && !uses.empty()) {
        // Reassignments of the iterator re-seat it (`it = c.erase(it)`).
        std::set<int> reseat_stmts;
        for (size_t u : uses) {
          if (u + 1 < sig.size() && IsPunct(sig[u + 1], "=") &&
              !(u + 2 < sig.size() && IsPunct(sig[u + 2], "="))) {
            reseat_stmts.insert(stmt_of[u]);
          }
        }
        for (const Mut& m : muts) {
          if (reseat_stmts.count(stmt_of[m.tok]) != 0) {
            continue;  // `it = c.erase(it)` style re-seat
          }
          // A use in a strictly later statement reads a dead iterator,
          // unless some re-seat happened in between.
          for (size_t u : uses) {
            if (stmt_of[u] <= stmt_of[m.tok]) {
              continue;
            }
            bool reseated = false;
            for (int rs : reseat_stmts) {
              if (rs > stmt_of[m.tok] && rs <= stmt_of[u]) {
                reseated = true;
                break;
              }
            }
            if (reseated) {
              break;
            }
            rep.Report("iterator-invalidate", sig[u]->line, sig[u]->col,
                       "'" + d.name + "' into '" + src.container +
                           "' is used after '" + src.container + "." + m.method +
                           "(...)' at line " + std::to_string(sig[m.tok]->line) +
                           " invalidated it; re-resolve after mutating");
            break;
          }
        }
      }
    }
  }

  // Range-for bodies that mutate the container they iterate.
  for (size_t i = 0; i + 1 < sig.size(); ++i) {
    if (!IsIdent(sig[i], "for") || !IsPunct(sig[i + 1], "(")) {
      continue;
    }
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
    if (colon == 0 || close == 0 || close + 1 >= sig.size() ||
        !IsPunct(sig[close + 1], "{")) {
      continue;
    }
    // Range expression must be a simple (possibly member) identifier; calls
    // and casts are out of scope for this check.
    if (close - colon != 2 || sig[colon + 1]->kind != TokKind::kIdentifier) {
      continue;
    }
    const std::string& cont = sig[colon + 1]->text;
    size_t body_open = close + 1;
    int body_scope = -1;
    for (size_t s = 0; s < scopes.size(); ++s) {
      if (scopes[s].open == body_open) {
        body_scope = static_cast<int>(s);
        break;
      }
    }
    if (body_scope < 0) {
      continue;
    }
    for (size_t j = body_open; j < scopes[body_scope].close && j + 3 < sig.size();
         ++j) {
      if (sig[j]->kind == TokKind::kIdentifier && sig[j]->text == cont &&
          (IsPunct(sig[j + 1], ".") || IsPunct(sig[j + 1], "->")) &&
          sig[j + 2]->kind == TokKind::kIdentifier &&
          Contains(kMutators, sig[j + 2]->text) && IsPunct(sig[j + 3], "(")) {
        rep.Report("iterator-invalidate", sig[j + 2]->line, sig[j + 2]->col,
                   "range-for over '" + cont + "' mutates it via '" +
                       sig[j + 2]->text + "(...)'; collect changes and apply "
                       "after the loop");
        break;
      }
    }
  }
}

}  // namespace farmlint
