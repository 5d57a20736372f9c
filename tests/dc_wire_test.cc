// The shared TC:DC wire endpoints (kernel/dc_wire.h) every carrier runs:
// each TC request kind round-trips WireDcClient -> ServeDcMessage ->
// WireDcClient::OnReply, a truncated body never reaches the DC or yields
// a reply, a count the body cannot hold is rejected before anything is
// sized by it, and what a crashed DC produced never leaves the server.
#include "kernel/dc_wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "dc/ab_lsn.h"
#include "dc/dc_redo_log.h"

namespace untx {
namespace {

constexpr TcId kTc = 3;

using Message = std::pair<MessageKind, std::string>;

/// Answers every call; a crashed instance (or an op on key "crash")
/// answers with Status::Crashed, as a dead DataComponent does.
class FakeDc : public DcService {
 public:
  bool crashed = false;
  int calls = 0;

  OperationReply Perform(const OperationRequest& req) override {
    ++calls;
    OperationReply reply;
    reply.tc_id = req.tc_id;
    reply.lsn = req.lsn;
    reply.status = crashed || req.key == "crash" ? Status::Crashed("down")
                                                 : Status::OK();
    reply.value = "v:" + req.key;
    return reply;
  }

  ControlReply Control(const ControlRequest& req) override {
    ++calls;
    ControlReply reply;
    reply.type = req.type;
    reply.tc_id = req.tc_id;
    reply.seq = req.seq;
    reply.status = crashed ? Status::Crashed("down") : Status::OK();
    return reply;
  }

  void PerformScanStream(const ScanStreamRequest& req,
                         const ScanChunkEmitter& emit) override {
    ++calls;
    emit(Chunk(req.base.tc_id, req.base.lsn, 0, false));
    emit(Chunk(req.base.tc_id, req.base.lsn, 1, true));
  }

  void ScanCredit(const ScanCreditRequest& req,
                  const ScanChunkEmitter& emit) override {
    ++calls;
    emit(Chunk(req.tc_id, req.stream_id, req.expect_chunk, true));
  }

 private:
  ScanStreamChunk Chunk(TcId tc, uint64_t stream, uint32_t index,
                        bool done) const {
    ScanStreamChunk chunk;
    chunk.tc_id = tc;
    chunk.stream_id = stream;
    chunk.chunk_index = index;
    chunk.done = done;
    chunk.status = crashed ? Status::Crashed("down") : Status::OK();
    chunk.keys = {"a", "b"};
    chunk.values = {"1", "2"};
    return chunk;
  }
};

/// A WireDcClient whose carrier records the request messages, with
/// handlers that count what OnReply delivers.
struct ClientHarness {
  std::vector<Message> sent;
  int delivered = 0;
  WireDcClient client{CoalesceOptions{},
                      [this](MessageKind kind, const std::string& body) {
                        sent.emplace_back(kind, body);
                      }};

  ClientHarness() {
    client.set_op_reply_handler([this](const OperationReply& reply) {
      EXPECT_EQ(reply.tc_id, kTc);
      EXPECT_EQ(reply.value, "v:k" + std::to_string(reply.lsn));
      ++delivered;
    });
    client.set_control_reply_handler([this](const ControlReply& reply) {
      EXPECT_EQ(reply.tc_id, kTc);
      EXPECT_EQ(reply.seq, 42u);
      ++delivered;
    });
    client.set_scan_chunk_handler([this](const ScanStreamChunk& chunk) {
      EXPECT_EQ(chunk.tc_id, kTc);
      EXPECT_EQ(chunk.stream_id, 9u);
      EXPECT_EQ(chunk.keys.size(), 2u);
      ++delivered;
    });
  }
};

OperationRequest Op(Lsn lsn) {
  OperationRequest req;
  req.tc_id = kTc;
  req.lsn = lsn;
  req.op = OpType::kRead;
  req.table_id = 1;
  req.key = "k" + std::to_string(lsn);
  return req;
}

struct Case {
  const char* name;
  std::function<void(WireDcClient*)> send;
  MessageKind request;
  /// Reply kinds the server sends, in order.
  std::vector<MessageKind> replies;
  /// Handler calls those replies make at the client.
  int delivered;
};

std::vector<Case> Cases() {
  const MessageKind kOpReply = MessageKind::kOperationReply;
  const MessageKind kChunk = MessageKind::kScanStreamChunk;
  return {
      {"op", [](WireDcClient* c) { c->SendOperation(Op(7)); },
       MessageKind::kOperationRequest, {kOpReply}, 1},
      {"batch",
       [](WireDcClient* c) { c->SendOperationBatch({Op(1), Op(2), Op(3)}); },
       MessageKind::kOperationBatch, {MessageKind::kOperationBatchReply}, 3},
      {"queued batch",
       [](WireDcClient* c) {
         c->QueueOperation(Op(4));
         c->QueueOperation(Op(5));
         c->FlushOperations();
       },
       MessageKind::kOperationBatch, {MessageKind::kOperationBatchReply}, 2},
      {"scan stream",
       [](WireDcClient* c) {
         ScanStreamRequest req;
         req.base = Op(9);
         req.base.op = OpType::kScanRange;
         req.chunk_rows = 2;
         req.credit_chunks = 4;
         req.probe_rows = true;
         c->SendScanStream(req);
       },
       MessageKind::kScanStreamRequest, {kChunk, kChunk}, 2},
      {"scan credit",
       [](WireDcClient* c) {
         ScanCreditRequest req;
         req.tc_id = kTc;
         req.stream_id = 9;
         req.allowed_chunks = 6;
         req.rewind = true;
         req.expect_chunk = 2;
         req.rewind_key = "a";
         req.rewind_upto = "z";
         c->SendScanCredit(req);
       },
       MessageKind::kScanCredit, {kChunk}, 1},
      {"control",
       [](WireDcClient* c) {
         ControlRequest req;
         req.type = ControlType::kLowWaterMark;
         req.tc_id = kTc;
         req.lsn = 11;
         req.seq = 42;
         c->SendControl(req);
       },
       MessageKind::kControlRequest, {MessageKind::kControlReply}, 1},
  };
}

TEST(DcWireTest, EveryRequestKindRoundTrips) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    FakeDc dc;
    ClientHarness h;
    c.send(&h.client);
    ASSERT_EQ(h.sent.size(), 1u);
    EXPECT_EQ(h.sent[0].first, c.request);

    std::vector<Message> replies;
    std::vector<TcId> noted;
    ASSERT_TRUE(ServeDcMessage(
        &dc, h.sent[0].first, h.sent[0].second,
        [&](MessageKind kind, const std::string& body) {
          replies.emplace_back(kind, body);
        },
        [&](TcId tc) { noted.push_back(tc); }));
    EXPECT_EQ(noted, std::vector<TcId>{kTc});
    ASSERT_EQ(replies.size(), c.replies.size());
    for (size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(replies[i].first, c.replies[i]);
      EXPECT_TRUE(h.client.OnReply(replies[i].first, replies[i].second));
    }
    EXPECT_EQ(h.delivered, c.delivered);

    WireTotals totals;
    h.client.AddWireStats(&totals);
    EXPECT_EQ(totals.request_messages, 1u);
  }
}

TEST(DcWireTest, TruncatedBodiesProduceNothing) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    FakeDc dc;
    ClientHarness h;
    c.send(&h.client);
    ASSERT_EQ(h.sent.size(), 1u);
    const auto& [kind, body] = h.sent[0];

    std::vector<Message> replies;
    auto sink = [&](MessageKind k, const std::string& b) {
      replies.emplace_back(k, b);
    };
    for (size_t len = 0; len < body.size(); ++len) {
      EXPECT_FALSE(ServeDcMessage(&dc, kind, Slice(body.data(), len), sink))
          << "request cut at " << len;
    }
    EXPECT_TRUE(replies.empty());
    EXPECT_EQ(dc.calls, 0);

    // The client side is just as strict about the replies.
    ASSERT_TRUE(ServeDcMessage(&dc, kind, body, sink));
    for (const auto& [reply_kind, reply] : replies) {
      for (size_t len = 0; len < reply.size(); ++len) {
        EXPECT_FALSE(h.client.OnReply(reply_kind, Slice(reply.data(), len)))
            << "reply cut at " << len;
      }
    }
    EXPECT_EQ(h.delivered, 0);
  }
}

template <typename Message>
std::string Encoded(const Message& msg) {
  std::string body;
  msg.EncodeTo(&body);
  return body;
}

template <typename Message>
bool Decodes(const std::string& body) {
  Slice input(body);
  Message msg;
  return Message::DecodeFrom(&input, &msg);
}

/// `body` with the count `count_from_end` bytes before its end replaced
/// by UINT32_MAX and everything after that count cut: a length lie.
std::string LieAbout(std::string body, size_t count_from_end) {
  EXPECT_EQ(body[body.size() - count_from_end], '\0') << "not an empty count";
  body.resize(body.size() - count_from_end);
  PutVarint32(&body, UINT32_MAX);
  return body;
}

TEST(DcWireTest, LengthLiesAreRejected) {
  // Each body encodes empty lists only, so its counts are single zero
  // bytes at known distances from the end.
  struct Lie {
    const char* name;
    std::string body;
    size_t count_from_end;
    bool (*decodes)(const std::string&);
  };
  const std::vector<Lie> lies = {
      {"batch ops", Encoded(OperationBatch{}), 1, &Decodes<OperationBatch>},
      {"batch replies", Encoded(OperationBatchReply{}), 1,
       &Decodes<OperationBatchReply>},
      // keys, values, rlsn
      {"reply keys", Encoded(OperationReply{}), 3, &Decodes<OperationReply>},
      {"reply values", Encoded(OperationReply{}), 2,
       &Decodes<OperationReply>},
      // keys, values, next_key, invisible
      {"chunk keys", Encoded(ScanStreamChunk{}), 4,
       &Decodes<ScanStreamChunk>},
      {"chunk values", Encoded(ScanStreamChunk{}), 3,
       &Decodes<ScanStreamChunk>},
      {"chunk invisible", Encoded(ScanStreamChunk{}), 1,
       &Decodes<ScanStreamChunk>},
      {"replica entries", Encoded(ReplicaEntriesMessage{}), 1,
       &Decodes<ReplicaEntriesMessage>},
      {"ablsn in-set", Encoded(AbstractLsn{}), 1, &Decodes<AbstractLsn>},
  };
  for (const Lie& lie : lies) {
    SCOPED_TRACE(lie.name);
    EXPECT_TRUE(lie.decodes(lie.body));
    EXPECT_FALSE(lie.decodes(LieAbout(lie.body, lie.count_from_end)));
  }

  // The same lie through the server: no DC call, no reply.
  FakeDc dc;
  const std::string batch = LieAbout(Encoded(OperationBatch{}), 1);
  EXPECT_EQ(batch, std::string("\xff\xff\xff\xff\x0f"));
  EXPECT_FALSE(ServeDcMessage(&dc, MessageKind::kOperationBatch, batch,
                              [](MessageKind, const std::string&) {
                                ADD_FAILURE() << "replied to a lie";
                              }));
  EXPECT_EQ(dc.calls, 0);
}

TEST(DcWireTest, CrashedDcRepliesAreSuppressed) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    FakeDc dc;
    dc.crashed = true;
    ClientHarness h;
    c.send(&h.client);
    ASSERT_EQ(h.sent.size(), 1u);
    int replies = 0;
    EXPECT_TRUE(ServeDcMessage(
        &dc, h.sent[0].first, h.sent[0].second,
        [&](MessageKind, const std::string&) { ++replies; }));
    EXPECT_GT(dc.calls, 0);
    EXPECT_EQ(replies, 0);
  }
}

TEST(DcWireTest, BatchKeepsOnlySurvivingReplies) {
  FakeDc dc;
  ClientHarness h;
  OperationRequest doomed = Op(2);
  doomed.key = "crash";
  h.client.SendOperationBatch({Op(1), doomed, Op(3)});
  ASSERT_EQ(h.sent.size(), 1u);
  std::vector<Message> replies;
  ASSERT_TRUE(ServeDcMessage(&dc, h.sent[0].first, h.sent[0].second,
                             [&](MessageKind kind, const std::string& body) {
                               replies.emplace_back(kind, body);
                             }));
  ASSERT_EQ(replies.size(), 1u);
  OperationBatchReply batch;
  Slice body(replies[0].second);
  ASSERT_TRUE(OperationBatchReply::DecodeFrom(&body, &batch));
  ASSERT_EQ(batch.replies.size(), 2u);
  EXPECT_EQ(batch.replies[0].lsn, 1u);
  EXPECT_EQ(batch.replies[1].lsn, 3u);
}

TEST(DcWireTest, EachSideRejectsTheOtherSidesKinds) {
  FakeDc dc;
  ClientHarness h;
  auto sink = [](MessageKind, const std::string&) { ADD_FAILURE(); };
  for (MessageKind kind :
       {MessageKind::kOperationReply, MessageKind::kOperationBatchReply,
        MessageKind::kScanStreamChunk, MessageKind::kControlReply,
        MessageKind::kReplicaSubscribe, MessageKind::kReplicaAck}) {
    EXPECT_FALSE(ServeDcMessage(&dc, kind, Slice(), sink));
  }
  for (MessageKind kind :
       {MessageKind::kOperationRequest, MessageKind::kOperationBatch,
        MessageKind::kScanStreamRequest, MessageKind::kScanCredit,
        MessageKind::kControlRequest, MessageKind::kReplicaEntries}) {
    EXPECT_FALSE(h.client.OnReply(kind, Slice()));
  }
  EXPECT_EQ(dc.calls, 0);
}

}  // namespace
}  // namespace untx
