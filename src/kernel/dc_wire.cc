#include "kernel/dc_wire.h"

namespace untx {

namespace {

template <typename Msg>
std::string Encode(const Msg& msg) {
  std::string out;
  msg.EncodeTo(&out);
  return out;
}

}  // namespace

bool ServeDcMessage(DcService* dc, MessageKind kind, Slice body,
                    const MessageSink& reply,
                    const std::function<void(TcId)>& note_tc) {
  auto note = [&note_tc](TcId tc) {
    if (note_tc) note_tc(tc);
  };
  // A crashed DC sends nothing: its chunks die with it and the TC
  // restarts the stream.
  auto emit = [&reply](const ScanStreamChunk& chunk) {
    if (!chunk.status.IsCrashed()) {
      reply(MessageKind::kScanStreamChunk, Encode(chunk));
    }
  };
  switch (kind) {
    case MessageKind::kOperationRequest: {
      OperationRequest req;
      if (!OperationRequest::DecodeFrom(&body, &req)) return false;
      note(req.tc_id);
      OperationReply out = dc->Perform(req);
      if (!out.status.IsCrashed()) {
        reply(MessageKind::kOperationReply, Encode(out));
      }
      return true;
    }
    case MessageKind::kOperationBatch: {
      OperationBatch batch;
      if (!OperationBatch::DecodeFrom(&body, &batch)) return false;
      if (!batch.ops.empty()) note(batch.ops.front().tc_id);
      OperationBatchReply out;
      for (auto& r : dc->PerformBatch(batch.ops)) {
        if (!r.status.IsCrashed()) out.replies.push_back(std::move(r));
      }
      if (!out.replies.empty()) {
        reply(MessageKind::kOperationBatchReply, Encode(out));
      }
      return true;
    }
    case MessageKind::kScanStreamRequest: {
      ScanStreamRequest req;
      if (!ScanStreamRequest::DecodeFrom(&body, &req)) return false;
      note(req.base.tc_id);
      dc->PerformScanStream(req, emit);
      return true;
    }
    case MessageKind::kScanCredit: {
      ScanCreditRequest req;
      if (!ScanCreditRequest::DecodeFrom(&body, &req)) return false;
      note(req.tc_id);
      dc->ScanCredit(req, emit);
      return true;
    }
    case MessageKind::kControlRequest: {
      ControlRequest req;
      if (!ControlRequest::DecodeFrom(&body, &req)) return false;
      note(req.tc_id);
      ControlReply out = dc->Control(req);
      if (!out.status.IsCrashed()) {
        reply(MessageKind::kControlReply, Encode(out));
      }
      return true;
    }
    default:
      return false;
  }
}

WireDcClient::WireDcClient(const CoalesceOptions& coalesce,
                           MessageSink send)
    : send_(std::move(send)),
      coalescer_(coalesce,
                 [this](const std::vector<OperationRequest>& batch) {
                   SendOperationBatch(batch);
                 }) {}

void WireDcClient::Send(MessageKind kind, const std::string& body) {
  request_messages_.fetch_add(1);
  send_(kind, body);
}

void WireDcClient::SendOperation(const OperationRequest& req) {
  op_messages_.fetch_add(1);
  ops_carried_.fetch_add(1);
  Send(MessageKind::kOperationRequest, Encode(req));
}

void WireDcClient::SendOperationBatch(
    const std::vector<OperationRequest>& reqs) {
  if (reqs.empty()) return;
  OperationBatch batch;
  batch.ops = reqs;
  op_messages_.fetch_add(1);
  ops_carried_.fetch_add(reqs.size());
  uint64_t promotes = 0;
  for (const auto& req : reqs) {
    if (req.op == OpType::kPromoteVersion) ++promotes;
  }
  if (promotes > 0) {
    promote_messages_.fetch_add(1);
    promote_ops_carried_.fetch_add(promotes);
  }
  Send(MessageKind::kOperationBatch, Encode(batch));
}

void WireDcClient::SendControl(const ControlRequest& req) {
  Send(MessageKind::kControlRequest, Encode(req));
}

void WireDcClient::SendScanStream(const ScanStreamRequest& req) {
  scan_messages_.fetch_add(1);
  Send(MessageKind::kScanStreamRequest, Encode(req));
}

void WireDcClient::SendScanCredit(const ScanCreditRequest& req) {
  scan_credit_messages_.fetch_add(1);
  Send(MessageKind::kScanCredit, Encode(req));
}

void WireDcClient::QueueOperation(const OperationRequest& req) {
  coalescer_.Queue(req);
}

void WireDcClient::FlushOperations() { coalescer_.Flush(); }

bool WireDcClient::OnReply(MessageKind kind, Slice body) {
  switch (kind) {
    case MessageKind::kOperationReply: {
      OperationReply reply;
      if (!OperationReply::DecodeFrom(&body, &reply)) return false;
      if (op_handler_) op_handler_(reply);
      return true;
    }
    case MessageKind::kOperationBatchReply: {
      OperationBatchReply batch;
      if (!OperationBatchReply::DecodeFrom(&body, &batch)) return false;
      if (op_handler_) {
        for (const auto& reply : batch.replies) op_handler_(reply);
      }
      return true;
    }
    case MessageKind::kScanStreamChunk: {
      ScanStreamChunk chunk;
      if (!ScanStreamChunk::DecodeFrom(&body, &chunk)) return false;
      scan_chunks_.fetch_add(1);
      scan_rows_carried_.fetch_add(chunk.keys.size());
      if (scan_chunk_handler_) scan_chunk_handler_(chunk);
      return true;
    }
    case MessageKind::kControlReply: {
      ControlReply reply;
      if (!ControlReply::DecodeFrom(&body, &reply)) return false;
      if (control_handler_) control_handler_(reply);
      return true;
    }
    default:
      return false;
  }
}

void WireDcClient::AddWireStats(WireTotals* totals) const {
  totals->request_messages += request_messages_.load();
  totals->op_messages += op_messages_.load();
  totals->ops_carried += ops_carried_.load();
  totals->scan_messages += scan_messages_.load();
  totals->scan_rows_carried += scan_rows_carried_.load();
  totals->scan_credit_messages += scan_credit_messages_.load();
  totals->promote_messages += promote_messages_.load();
  totals->promote_ops_carried += promote_ops_carried_.load();
}

}  // namespace untx
