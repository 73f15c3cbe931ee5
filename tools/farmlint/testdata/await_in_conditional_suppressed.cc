// Fixture: a justified await in a ?: branch; must be clean.
Task<int> Trivial(bool a) {
  // farmlint: allow(await-in-conditional): returns a plain int, no temporaries
  co_return a ? co_await One() : 0;
}
