// Fixture: co_await in a branch of a conditional expression. GCC 12 can
// destroy a suspended branch's temporaries twice, so every await below that
// sits after a `?` must fire await-in-conditional (and nothing else).
Task<StatusOr<Bytes>> ReadEither(Transaction* tx, Node& node, Addr addr) {
  co_return tx != nullptr ? co_await tx->Read(addr) : co_await node.LockFreeRead(addr);
}

Task<int> Nested(bool a, bool b) {
  int v = a ? (b ? co_await One() : 2) : 3;
  Use(a ? 0 : co_await Two(), 4);
  co_return v;
}
