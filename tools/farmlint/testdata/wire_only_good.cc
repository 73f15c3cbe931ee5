// Fixture: protocol code sending and decoding whole body structs.
#include "src/core/wire.h"

namespace demo {

void SendAck(Messenger& m, uint64_t cid) { m.Send(1, NewConfigAck{cid}, -1); }

uint64_t ReadAck(std::vector<uint8_t>& payload) { return Decode<NewConfigAck>(payload).config; }

}  // namespace demo
