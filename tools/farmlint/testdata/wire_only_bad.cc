// Fixture: protocol code packing a message body by hand instead of
// declaring it as a struct in wire.h.
#include "src/common/serde.h"

namespace demo {

void SendAck(Messenger& m, const TxId& tx, uint64_t cid) {
  BufWriter w;
  PutTxId(w, tx);
  w.PutU64(cid);
  m.SendMessage(1, MsgType::kNewConfigAck, w.Take(), -1);
}

uint64_t ReadAck(const std::vector<uint8_t>& payload) {
  BufReader r(payload);
  GlobalAddr a = GetAddr(r);
  return a.Packed();
}

}  // namespace demo
