// farmlint's own tests: lexer unit tests plus fixture files under testdata/
// that must (or must not) trigger specific rules.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/farmlint/driver.h"
#include "tools/farmlint/lexer.h"
#include "tools/farmlint/rules.h"

namespace farmlint {
namespace {

std::string Testdata(const std::string& name) {
  return std::string(FARMLINT_TESTDATA) + "/" + name;
}

FileConfig DefaultRules() {
  FileConfig config;
  for (const RuleInfo& r : AllRules()) {
    if (r.default_on) {
      config.rules.insert(r.name);
    }
  }
  config.await = DefaultAwaitConfig();
  return config;
}

// Lints one fixture (collecting declarations from `extra_decl_files` first)
// and returns rule -> count.
std::map<std::string, int> LintFixture(const std::string& name,
                                       const FileConfig& config,
                                       const std::vector<std::string>& extra_decl_files = {}) {
  Linter linter;
  std::vector<FileInput> inputs;
  for (const std::string& extra : extra_decl_files) {
    FileInput in;
    EXPECT_TRUE(LoadFile(Testdata(extra), &in)) << extra;
    linter.CollectDeclarations(in);
  }
  FileInput target;
  EXPECT_TRUE(LoadFile(Testdata(name), &target)) << name;
  linter.CollectDeclarations(target);
  std::map<std::string, int> hits;
  for (const Diagnostic& d : linter.Lint(target, config)) {
    hits[d.rule]++;
  }
  return hits;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesIdentifiersStringsAndComments) {
  auto toks = Lex("int x = rand(); // trailing\n\"rand()\" /* block */");
  // 0:int 1:x 2:= 3:rand 4:( 5:) 6:; 7:comment 8:string 9:comment 10:eof
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].kind, TokKind::kIdentifier);
  EXPECT_EQ(toks[3].text, "rand");
  EXPECT_EQ(toks[3].line, 1);
  EXPECT_EQ(toks[7].kind, TokKind::kComment);
  EXPECT_EQ(toks[8].kind, TokKind::kString);
  EXPECT_EQ(toks[8].line, 2);
  EXPECT_EQ(toks[9].kind, TokKind::kComment);
}

TEST(LexerTest, BannedNamesInsideStringsStayStrings) {
  auto toks = Lex("const char* s = \"time(nullptr) rand()\";");
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "time");
    EXPECT_NE(t.text, "rand");
  }
}

TEST(LexerTest, RawStringsAreOneToken) {
  auto toks = Lex("auto s = R\"(rand() \" unclosed)\"; int after = 1;");
  bool saw_after = false;
  for (const Token& t : toks) {
    if (t.text == "after") {
      saw_after = true;
    }
    EXPECT_NE(t.text, "rand");
  }
  EXPECT_TRUE(saw_after);
}

TEST(LexerTest, IncludeHeaderNameIsOneToken) {
  auto toks = Lex("#include <unordered_map>\nint x;");
  bool saw_header = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kString && t.text == "<unordered_map>") {
      saw_header = true;
    }
    EXPECT_NE(t.text, "unordered_map");
  }
  EXPECT_TRUE(saw_header);
}

TEST(LexerTest, DirectiveTokensAreMarked) {
  auto toks = Lex("#ifndef FOO_H_\n#define FOO_H_\nint x;\n#endif\n");
  ASSERT_GT(toks.size(), 3u);
  EXPECT_TRUE(toks[1].in_directive);  // ifndef
  EXPECT_EQ(toks[1].text, "ifndef");
  bool x_in_directive = true;
  for (const Token& t : toks) {
    if (t.text == "x") {
      x_in_directive = t.in_directive;
    }
  }
  EXPECT_FALSE(x_in_directive);
}

// ---------------------------------------------------------------------------
// Rules on fixtures
// ---------------------------------------------------------------------------

TEST(RuleFixtureTest, WallClock) {
  auto hits = LintFixture("bad_wallclock.cc", DefaultRules());
  EXPECT_EQ(hits["wall-clock"], 7);
  EXPECT_EQ(hits.size(), 1u) << "only wall-clock may fire";
}

TEST(RuleFixtureTest, RawRand) {
  auto hits = LintFixture("bad_rand.cc", DefaultRules());
  EXPECT_EQ(hits["raw-rand"], 6);
  EXPECT_EQ(hits.size(), 1u) << "only raw-rand may fire";
}

TEST(RuleFixtureTest, UnorderedIter) {
  auto hits = LintFixture("bad_unordered_iter.cc", DefaultRules());
  EXPECT_EQ(hits["unordered-iter"], 3);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(RuleFixtureTest, UnorderedIterAcrossFiles) {
  // The member is declared in the header; the iteration lives in the .cc.
  auto hits = LintFixture("cross_file_iter.cc", DefaultRules(), {"cross_file_decl.h"});
  EXPECT_EQ(hits["unordered-iter"], 1);
}

TEST(RuleFixtureTest, UnorderedLocalsDoNotTaintOtherFiles) {
  // local_scope_a.cc declares an unordered local `scratch`; local_scope_b.cc
  // iterates an ordered std::map with the same name. Only members (trailing
  // underscore) are matched across files.
  EXPECT_TRUE(LintFixture("local_scope_b.cc", DefaultRules(), {"local_scope_a.cc"}).empty());
  auto hits = LintFixture("local_scope_a.cc", DefaultRules());
  EXPECT_TRUE(hits.empty()) << "declaring (without iterating) is fine by default";
}

TEST(RuleFixtureTest, PointerAndFloatKeys) {
  auto hits = LintFixture("bad_keys.cc", DefaultRules());
  EXPECT_EQ(hits["ptr-key"], 2);
  EXPECT_EQ(hits["float-key"], 2);
  EXPECT_EQ(hits.size(), 2u);
}

TEST(RuleFixtureTest, HeaderHygiene) {
  auto hits = LintFixture("bad_header.h", DefaultRules());
  EXPECT_EQ(hits["include-guard"], 1);
  EXPECT_EQ(hits["using-namespace-header"], 1);
}

TEST(RuleFixtureTest, GuardedHeadersAreClean) {
  EXPECT_TRUE(LintFixture("good_guard.h", DefaultRules()).empty());
  EXPECT_TRUE(LintFixture("good_pragma.h", DefaultRules()).empty());
}

TEST(RuleFixtureTest, CleanFileHasNoFindings) {
  EXPECT_TRUE(LintFixture("good_clean.cc", DefaultRules()).empty());
}

TEST(RuleFixtureTest, AllowCommentsSuppress) {
  EXPECT_TRUE(LintFixture("good_suppressed.cc", DefaultRules()).empty());
}

TEST(RuleFixtureTest, RandImplementationFileIsExempt) {
  EXPECT_TRUE(LintFixture("rand.cc", DefaultRules()).empty());
}

TEST(RuleFixtureTest, UnorderedDeclIsOffByDefault) {
  auto hits = LintFixture("configdir/decl_only.cc", DefaultRules());
  EXPECT_EQ(hits.count("unordered-decl"), 0u);
  EXPECT_EQ(hits["ptr-key"], 1);  // default rules: ptr-key still on
}

TEST(RuleFixtureTest, ChaosRngIsOffByDefault) {
  auto hits = LintFixture("chaosdir/plan_rng.cc", DefaultRules());
  EXPECT_EQ(hits.count("chaos-rng"), 0u);
}

TEST(RuleFixtureTest, RecorderPodFlagsNonPodRecords) {
  auto hits = LintFixture("recorder_bad.cc", DefaultRules());
  EXPECT_EQ(hits["recorder-pod"], 4);
  EXPECT_EQ(hits.size(), 1u) << "only recorder-pod may fire";
}

TEST(RuleFixtureTest, RecorderPodAllowsFlatRecords) {
  EXPECT_TRUE(LintFixture("recorder_good.cc", DefaultRules()).empty());
}

FileConfig WithMutableGlobal() {
  FileConfig config = DefaultRules();
  config.rules.insert("mutable-global");
  return config;
}

TEST(RuleFixtureTest, MutableGlobalIsOffByDefault) {
  EXPECT_TRUE(LintFixture("mutable_global_bad.cc", DefaultRules()).empty());
}

TEST(RuleFixtureTest, MutableGlobalFlagsProcessWideState) {
  auto hits = LintFixture("mutable_global_bad.cc", WithMutableGlobal());
  EXPECT_EQ(hits["mutable-global"], 8);
  EXPECT_EQ(hits.size(), 1u) << "only mutable-global may fire";
}

TEST(RuleFixtureTest, MutableGlobalAllowsConstantsAndThreadLocals) {
  EXPECT_TRUE(LintFixture("mutable_global_good.cc", WithMutableGlobal()).empty());
}

TEST(RuleFixtureTest, MutableGlobalAllowCommentsSuppress) {
  EXPECT_TRUE(LintFixture("mutable_global_suppressed.cc", WithMutableGlobal()).empty());
}

FileConfig WithEmitOnly() {
  FileConfig config = DefaultRules();
  config.rules.insert("emit-only");
  return config;
}

TEST(RuleFixtureTest, EmitOnlyIsOffByDefault) {
  EXPECT_TRUE(LintFixture("emit_only_bad.cc", DefaultRules()).empty());
}

TEST(RuleFixtureTest, EmitOnlyFlagsDirectSinkCalls) {
  auto hits = LintFixture("emit_only_bad.cc", WithEmitOnly());
  EXPECT_EQ(hits["emit-only"], 4) << "NoteMilestone, two trace::, HitPoint";
  EXPECT_EQ(hits.size(), 1u) << "only emit-only may fire";
}

TEST(RuleFixtureTest, EmitOnlyAllowsEmitterCalls) {
  EXPECT_TRUE(LintFixture("emit_only_good.cc", WithEmitOnly()).empty());
}

TEST(RuleFixtureTest, EmitOnlyAllowCommentsSuppress) {
  EXPECT_TRUE(LintFixture("emit_only_suppressed.cc", WithEmitOnly()).empty());
}

// The emitter and the cluster own the sinks, so their files are exempt.
TEST(RuleFixtureTest, EmitOnlyExemptsEmitterAndCluster) {
  Linter linter;
  for (const char* basename : {"emit.cc", "cluster.h"}) {
    FileInput in;
    ASSERT_TRUE(LoadFile(Testdata("emit_only_bad.cc"), &in));
    in.basename = basename;
    linter.CollectDeclarations(in);
    EXPECT_TRUE(linter.Lint(in, WithEmitOnly()).empty()) << basename;
  }
}

FileConfig WithWireOnly() {
  FileConfig config = DefaultRules();
  config.rules.insert("wire-only");
  return config;
}

TEST(RuleFixtureTest, WireOnlyIsOffByDefault) {
  EXPECT_TRUE(LintFixture("wire_only_bad.cc", DefaultRules()).empty());
}

TEST(RuleFixtureTest, WireOnlyFlagsHandPackedBodies) {
  auto hits = LintFixture("wire_only_bad.cc", WithWireOnly());
  EXPECT_EQ(hits["wire-only"], 4) << "BufWriter, PutTxId, BufReader, GetAddr";
  EXPECT_EQ(hits.size(), 1u) << "only wire-only may fire";
}

TEST(RuleFixtureTest, WireOnlyAllowsBodyStructs) {
  EXPECT_TRUE(LintFixture("wire_only_good.cc", WithWireOnly()).empty());
}

// The codec, the configuration and the ring framing own the byte packing.
TEST(RuleFixtureTest, WireOnlyExemptsCodecFiles) {
  Linter linter;
  for (const char* basename : {"wire.cc", "config.cc", "ringlog.h", "msgr.cc"}) {
    FileInput in;
    ASSERT_TRUE(LoadFile(Testdata("wire_only_bad.cc"), &in));
    in.basename = basename;
    linter.CollectDeclarations(in);
    EXPECT_TRUE(linter.Lint(in, WithWireOnly()).empty()) << basename;
  }
}

TEST(RuleFixtureTest, ChaosRngFlagsLiteralSeeds) {
  FileConfig config = DefaultRules();
  config.rules.insert("chaos-rng");
  auto hits = LintFixture("chaosdir/plan_rng.cc", config);
  EXPECT_EQ(hits["chaos-rng"], 2);
  EXPECT_EQ(hits.size(), 1u) << "plan-derived seeds must not fire";
}

// ---------------------------------------------------------------------------
// Await-safety rules (scope/flow-aware analyzer)
// ---------------------------------------------------------------------------

TEST(AwaitRuleTest, AwaitHazardTriple) {
  auto bad = LintFixture("await_hazard_bad.cc", DefaultRules());
  EXPECT_GE(bad["await-hazard"], 4) << "pointer, iterator, reference, subscript";
  EXPECT_EQ(bad.size(), 1u) << "only await-hazard may fire";
  EXPECT_TRUE(LintFixture("await_hazard_good.cc", DefaultRules()).empty());
  EXPECT_TRUE(LintFixture("await_hazard_suppressed.cc", DefaultRules()).empty());
}

TEST(AwaitRuleTest, ResolveRefPatternIsCaught) {
  // The exact shape of the PR 4 use-after-free in Node::ResolveRef: a
  // RegionPlacement* from config_.Placement() held across co_await while
  // reconfiguration frees the old config.
  auto hits = LintFixture("resolve_ref_uaf.cc", DefaultRules());
  EXPECT_GE(hits["await-hazard"], 1);
}

TEST(AwaitRuleTest, LockAcrossAwaitTriple) {
  auto bad = LintFixture("lock_await_bad.cc", DefaultRules());
  EXPECT_GE(bad["lock-across-await"], 2);
  EXPECT_EQ(bad.size(), 1u) << "only lock-across-await may fire";
  EXPECT_TRUE(LintFixture("lock_await_good.cc", DefaultRules()).empty());
  EXPECT_TRUE(LintFixture("lock_await_suppressed.cc", DefaultRules()).empty());
}

TEST(AwaitRuleTest, IteratorInvalidateTriple) {
  auto bad = LintFixture("iter_invalidate_bad.cc", DefaultRules());
  EXPECT_GE(bad["iterator-invalidate"], 4);
  EXPECT_EQ(bad.size(), 1u) << "only iterator-invalidate may fire";
  EXPECT_TRUE(LintFixture("iter_invalidate_good.cc", DefaultRules()).empty());
  EXPECT_TRUE(LintFixture("iter_invalidate_suppressed.cc", DefaultRules()).empty());
}

TEST(AwaitRuleTest, AwaitInConditionalTriple) {
  auto bad = LintFixture("await_in_conditional_bad.cc", DefaultRules());
  EXPECT_EQ(bad["await-in-conditional"], 3) << "one per line: ReadEither, nested branch, else branch";
  EXPECT_EQ(bad.size(), 1u) << "only await-in-conditional may fire";
  EXPECT_TRUE(LintFixture("await_in_conditional_good.cc", DefaultRules()).empty());
  EXPECT_TRUE(LintFixture("await_in_conditional_suppressed.cc", DefaultRules()).empty());
}

TEST(AwaitRuleTest, StableAnnotationInHeaderExemptsCallers) {
  // stable_accessor.h marks IndexOf() with `// farmlint: stable`; the .cc
  // holds its result across an await, which must then be clean.
  EXPECT_TRUE(
      LintFixture("stable_user.cc", DefaultRules(), {"stable_accessor.h"}).empty());
}

TEST(AwaitRuleTest, BadAllowNamesUnknownRule) {
  auto hits = LintFixture("bad_allow.cc", DefaultRules());
  EXPECT_EQ(hits["bad-allow"], 2) << "unknown rule in allow() + unbindable stable";
}

TEST(AwaitRuleTest, DiagnosticsAreDeduplicated) {
  // dup_diag.cc provokes the same (line, rule) twice; only one report.
  auto hits = LintFixture("dup_diag.cc", DefaultRules());
  EXPECT_EQ(hits["await-hazard"], 1);
}

// ---------------------------------------------------------------------------
// Driver: per-directory config + end-to-end run
// ---------------------------------------------------------------------------

TEST(DriverTest, ConfigDirTogglesRules) {
  FileConfig config =
      ResolveFileConfig(FARMLINT_TESTDATA, Testdata("configdir/decl_only.cc"));
  EXPECT_EQ(config.rules.count("unordered-decl"), 1u);
  EXPECT_EQ(config.rules.count("ptr-key"), 0u);
  EXPECT_EQ(config.rules.count("wall-clock"), 1u);

  DriverOptions options;
  options.root = FARMLINT_TESTDATA;
  options.paths = {Testdata("configdir")};
  std::ostringstream out;
  int n = RunFarmlint(options, out);
  EXPECT_EQ(n, 1) << out.str();
  EXPECT_NE(out.str().find("unordered-decl"), std::string::npos) << out.str();
}

TEST(DriverTest, DiscoverSkipsNonSource) {
  auto files = DiscoverFiles({Testdata("configdir")});
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].find("decl_only.cc"), std::string::npos);
}

TEST(DriverTest, ChaosDirEnablesChaosRng) {
  FileConfig config =
      ResolveFileConfig(FARMLINT_TESTDATA, Testdata("chaosdir/plan_rng.cc"));
  EXPECT_EQ(config.rules.count("chaos-rng"), 1u);

  DriverOptions options;
  options.root = FARMLINT_TESTDATA;
  options.paths = {Testdata("chaosdir")};
  std::ostringstream out;
  int n = RunFarmlint(options, out);
  EXPECT_EQ(n, 2) << out.str();
  EXPECT_NE(out.str().find("chaos-rng"), std::string::npos) << out.str();
}

TEST(DriverTest, KnownRuleNames) {
  EXPECT_TRUE(IsKnownRule("wall-clock"));
  EXPECT_TRUE(IsKnownRule("unordered-iter"));
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
  EXPECT_TRUE(IsKnownRule("chaos-rng"));
  EXPECT_TRUE(IsKnownRule("recorder-pod"));
  EXPECT_TRUE(IsKnownRule("mutable-global"));
  EXPECT_TRUE(IsKnownRule("emit-only"));
  EXPECT_TRUE(IsKnownRule("wire-only"));
  EXPECT_TRUE(IsKnownRule("await-hazard"));
  EXPECT_TRUE(IsKnownRule("lock-across-await"));
  EXPECT_TRUE(IsKnownRule("iterator-invalidate"));
  EXPECT_TRUE(IsKnownRule("await-in-conditional"));
  EXPECT_TRUE(IsKnownRule("bad-allow"));
}

TEST(DriverTest, AwaitConfigVerbs) {
  // testdata/awaitdir/.farmlint: unstable RawSlot pointer, stable Placement,
  // guard SpinGuard.
  FileConfig config =
      ResolveFileConfig(FARMLINT_TESTDATA, Testdata("awaitdir/custom.cc"));
  ASSERT_EQ(config.await.unstable.count("RawSlot"), 1u);
  EXPECT_EQ(config.await.unstable.at("RawSlot"), Yield::kPointer);
  EXPECT_EQ(config.await.unstable.count("Placement"), 0u);
  EXPECT_EQ(config.await.guards.count("SpinGuard"), 1u);

  DriverOptions options;
  options.root = FARMLINT_TESTDATA;
  options.paths = {Testdata("awaitdir")};
  std::ostringstream out;
  int n = RunFarmlint(options, out);
  EXPECT_EQ(n, 2) << out.str();
  EXPECT_NE(out.str().find("await-hazard"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("lock-across-await"), std::string::npos) << out.str();
}

// Writes a compile_commands.json into the test's scratch directory. Entries
// need absolute testdata paths, so the database is generated at runtime.
std::string WriteCompDb() {
  std::string path = ::testing::TempDir() + "farmlint_compile_commands.json";
  std::ofstream db(path);
  db << "[\n"
     << "  {\n"
     << "    \"directory\": \"" << Testdata("configdir") << "\",\n"
     << "    \"command\": \"c++ -c decl_only.cc -o decl_only.o\",\n"
     << "    \"file\": \"decl_only.cc\"\n"
     << "  },\n"
     << "  {\n"
     << "    \"directory\": \"/\",\n"
     << "    \"command\": \"c++ -c /nonexistent/outside_root.cc\",\n"
     << "    \"file\": \"/nonexistent/outside_root.cc\"\n"
     << "  },\n"
     << "  {\n"
     << "    \"directory\": \"" << FARMLINT_TESTDATA << "\",\n"
     << "    \"command\": \"c++ -c deleted_since_configure.cc\",\n"
     << "    \"file\": \"deleted_since_configure.cc\"\n"
     << "  }\n"
     << "]\n";
  return path;
}

TEST(DriverTest, FilesFromCompDb) {
  // The database lists configdir/decl_only.cc (relative to its "directory"
  // entry), one file outside root, and one missing file; only the first
  // survives.
  std::vector<std::string> files;
  std::string error;
  ASSERT_TRUE(FilesFromCompDb(WriteCompDb(), FARMLINT_TESTDATA, &files, &error)) << error;
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].find("decl_only.cc"), std::string::npos);

  std::string empty_path = ::testing::TempDir() + "farmlint_empty_compdb.json";
  std::ofstream(empty_path) << "[]\n";
  std::vector<std::string> none;
  EXPECT_FALSE(FilesFromCompDb(empty_path, FARMLINT_TESTDATA, &none, &error));
  EXPECT_FALSE(FilesFromCompDb(Testdata("no_such_compdb.json"), FARMLINT_TESTDATA,
                               &none, &error));
}

TEST(DriverTest, CompDbDrivesLintRun) {
  DriverOptions options;
  options.root = FARMLINT_TESTDATA;
  options.compdb = WriteCompDb();
  options.paths = {Testdata("configdir")};  // globbed for headers only (none)
  std::ostringstream out;
  int n = RunFarmlint(options, out);
  EXPECT_EQ(n, 1) << out.str();
  EXPECT_NE(out.str().find("unordered-decl"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace farmlint
