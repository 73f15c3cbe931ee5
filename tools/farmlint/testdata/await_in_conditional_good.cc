// Fixture: awaits outside the branches of a conditional expression; must be
// clean.
Task<StatusOr<Bytes>> ReadEither(Transaction* tx, Node& node, Addr addr) {
  StatusOr<Bytes> bytes = Bytes();
  if (tx != nullptr) {
    bytes = co_await tx->Read(addr);
  } else {
    bytes = co_await node.LockFreeRead(addr);
  }
  co_return bytes;
}

Task<int> AwaitInCondition(int ok) {
  // The condition operand is evaluated unconditionally.
  ok += co_await Succeeds() ? 1 : 0;
  int x = Pick(ok > 1 ? 2 : 3, co_await Three());  // the `,` ends the ?:
  co_return ok + (ok ? 1 : 0) + co_await Four() + x;  // the `)` ends the ?:
}
