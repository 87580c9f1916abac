#include "src/serve/client.h"


#include <algorithm>
#include <memory>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"
#include "src/obs/tracer.h"

namespace logfs::serve {
namespace {

Status ToStatus(const Response& resp) {
  if (resp.code == ErrorCode::kOk) {
    return OkStatus();
  }
  return Status(resp.code, resp.error);
}

// Client-observed op latency distribution, microseconds.
constexpr double kLatencyBoundsUs[] = {50,    100,   200,   500,    1000,   2000,
                                       5000,  10000, 20000, 50000,  100000, 200000,
                                       500000, 1e6,  2e6,   5e6};

}  // namespace

Client::Client(SimClock* clock, EventQueue* events, SimTransport* transport, NodeId server,
               ClientOptions options)
    : clock_(clock),
      events_(events),
      transport_(transport),
      server_(server),
      node_(0),
      options_(std::move(options)) {
  node_ = transport_->Register([this](Message&& m) { OnMessage(std::move(m)); });
}

double Client::Now() const { return clock_->Now(); }

Client::Handle* Client::Find(uint64_t handle) {
  auto it = handles_.find(handle);
  return it == handles_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// RPC layer: at-most-once over a lossy transport. Every call retransmits on
// timeout with exponential backoff; the server's dedup cache absorbs the
// duplicates, so a response always corresponds to exactly one execution.

void Client::Call(Request request, std::function<void(Response&&)> cb,
                  const obs::TraceContext* ctx) {
  if (crashed_) {
    return;  // A dead client sends nothing; the callback is abandoned.
  }
  request.client_id = node_;
  request.request_id = next_request_id_++;
  const uint64_t id = request.request_id;
  Outstanding& out = outstanding_[id];
  out.ctx = ctx != nullptr ? *ctx : op_ctx_;
  if (out.ctx.active()) {
    out.rpc_span = obs::MintSpanId(out.ctx);
    out.call_time = Now();
    const uint64_t attempt_span = obs::MintSpanId(out.ctx);
    out.attempts.emplace_back(out.call_time, attempt_span);
    // The wire carries the *attempt* span so the server's handle span
    // parents under the send that actually reached it.
    request.ctx = obs::TraceContext{out.ctx.trace_id, attempt_span};
    request.attempt = 0;
  }
  out.request = request;
  out.cb = std::move(cb);
  out.rto = options_.rto_seconds;
  out.timer = events_->ScheduleAfter(out.rto, [this, id] { Retransmit(id); });
  transport_->Send(server_, Message::MakeRequest(std::move(request)));
}

void Client::Retransmit(uint64_t request_id) {
  if (crashed_) {
    return;
  }
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) {
    return;  // Answered between scheduling and firing.
  }
  Outstanding& out = it->second;
  obs::Count<"logfs.serve.client.retransmits">();
  if (out.ctx.active()) {
    // Each resend is its own sibling attempt span, tagged with the RTO
    // generation; the response will name exactly one of them the winner.
    const uint64_t attempt_span = obs::MintSpanId(out.ctx);
    out.attempts.emplace_back(Now(), attempt_span);
    out.request.ctx.span_id = attempt_span;
    out.request.attempt = static_cast<uint32_t>(out.attempts.size() - 1);
  }
  out.rto = std::min(out.rto * 2.0, options_.max_rto_seconds);
  out.timer = events_->ScheduleAfter(out.rto, [this, request_id] { Retransmit(request_id); });
  transport_->Send(server_, Message::MakeRequest(out.request));
}

void Client::OnMessage(Message&& message) {
  if (crashed_) {
    return;
  }
  switch (message.kind) {
    case Message::Kind::kResponse:
      OnResponse(std::move(message.response));
      return;
    case Message::Kind::kRevoke:
      OnRevoke(message.revoke);
      return;
    case Message::Kind::kRequest:
    case Message::Kind::kRevokeAck:
      return;  // Not addressed to a client; ignore.
  }
}

void Client::OnResponse(Response&& response) {
  if (response.server_epoch > server_epoch_) {
    // New server incarnation: sequence numbers restarted, so per-epoch
    // bookkeeping resets. Handles re-establish lazily (EnsureHandle) and
    // non-durable blocks replay under reclaimed leases.
    server_epoch_ = response.server_epoch;
    durable_seq_ = 0;
    max_write_seq_ = 0;
  }
  RetireDurable(response.durable_seq);
  auto it = outstanding_.find(response.request_id);
  if (it == outstanding_.end()) {
    return;  // Duplicate reply to a retransmitted request.
  }
  events_->Cancel(it->second.timer);
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  RecordRpcSpans(out, response);
  out.cb(std::move(response));
}

void Client::RecordRpcSpans(const Outstanding& out, const Response& response) {
  if (!out.ctx.active()) {
    return;
  }
  const double now = Now();
  const char* op = OpKindName(out.request.op);
  const size_t n = out.attempts.size();
  // The server echoed which send's payload it executed (or replayed from
  // the dedup cache) — that attempt carried the exchange; clamp defends
  // against a response from a pre-crash incarnation that never saw it.
  const size_t winner = std::min<size_t>(response.attempt, n - 1);
  for (size_t i = 0; i < n; ++i) {
    const auto [sent_at, span] = out.attempts[i];
    // Attempts tile [call, response]: a loser span ends where the next
    // send starts (its useful life — waiting — ended there); the winner
    // runs to the response, so the tree's critical path credits the
    // network exactly once and every earlier wait as retransmit cost.
    const double end =
        i == winner ? now : (i + 1 < n ? std::min(out.attempts[i + 1].first, now) : now);
    obs::RecordSpanIds(
        "serve.attempt", op, sent_at, end, out.ctx.trace_id, span, out.rpc_span, {},
        {{"rto_gen", std::to_string(i)}, {"winner", i == winner ? "1" : "0"}});
  }
  obs::RecordSpanIds("serve.rpc", op, out.call_time, now, out.ctx.trace_id,
                     out.rpc_span, out.ctx.span_id);
  if (n > 1) {
    obs::Count<"logfs.serve.rpc.wasted_attempts">(n - 1);
  }
  obs::Count<"logfs.serve.rpc.attempts">(n);
}

void Client::RetireDurable(uint64_t durable_seq) {
  if (durable_seq <= durable_seq_) {
    return;
  }
  durable_seq_ = durable_seq;
  for (auto& [id, h] : handles_) {
    for (auto& [b, blk] : h.blocks) {
      if (blk.unstable && blk.seq_epoch == server_epoch_ && blk.server_seq <= durable_seq_) {
        blk.unstable = false;  // Covered by a durable commit: replay no more.
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lease recall. A read lease (or a clean write lease) acks immediately; a
// dirty write lease queues a front-of-line op that writes back, commits, and
// only then acks — the ack is the server's license to hand the file to the
// next writer, so it must imply durability of everything we did to it.

void Client::OnRevoke(const Revoke& revoke) {
  const uint64_t action = ++action_seq_;
  uint64_t hid = 0;
  Handle* h = nullptr;
  for (auto& [id, hh] : handles_) {
    if (hh.open && hh.fh == revoke.fh) {
      hh.last_revoke_action = action;  // Voids in-flight grants for the file.
      if (h == nullptr && hh.lease != LeaseKind::kNone) {
        hid = id;
        h = &hh;
      }
    }
  }
  const RevokeAck ack{node_, revoke.fh, revoke.revoke_id};
  if (h == nullptr || !LeaseValid(*h) || h->lease == LeaseKind::kRead) {
    if (h != nullptr) {
      InvalidateFile(*h);
    }
    transport_->Send(server_, Message::MakeRevokeAck(ack));
    return;
  }
  if (h->recalled) {
    return;  // Already flushing; its ack will release the lease for both.
  }
  h->recalled = true;
  // The flush is out-of-band work with no foreground op to parent under: it
  // gets its own root trace, linked to the conflicting request's trace (the
  // revoke carries it) so that request's park span can be followed here.
  FlushForRevoke(hid, ack, obs::MintTrace(), revoke.ctx.trace_id, Now());
}

void Client::FlushForRevoke(uint64_t hid, RevokeAck ack, obs::TraceContext flush_ctx,
                            uint64_t link_trace, double started) {
  Handle* h = Find(hid);
  if (h == nullptr || !h->open) {
    transport_->Send(server_, Message::MakeRevokeAck(ack));
    return;
  }
  std::vector<uint64_t> dirty;
  for (const auto& [b, blk] : h->blocks) {
    if (blk.dirty) {
      dirty.push_back(b);
    }
  }
  WritebackBlocks(hid, std::move(dirty), [this, hid, ack, flush_ctx, link_trace,
                                          started](Status) {
    CommitSeq(max_write_seq_, [this, hid, ack, flush_ctx, link_trace, started](Status) {
      if (crashed_) {
        return;
      }
      if (Handle* h2 = Find(hid)) {
        InvalidateFile(*h2);
        h2->recalled = false;
      }
      if (flush_ctx.active()) {
        std::vector<uint64_t> links;
        if (link_trace != 0) {
          links.push_back(link_trace);
        }
        obs::RecordSpanIds("serve.revoke_flush", "flush", started, Now(),
                           flush_ctx.trace_id, flush_ctx.span_id, 0,
                           std::move(links),
                           {{"client", std::to_string(node_)}});
      }
      transport_->Send(server_, Message::MakeRevokeAck(ack));
    }, flush_ctx);
  }, flush_ctx);
}

// ---------------------------------------------------------------------------
// Op queue: one user op at a time, in order, like a single application
// process. Completion trampolines through the event queue so a burst of
// cache hits cannot recurse.

void Client::Enqueue(const char* kind, std::function<void(std::function<void()>)> body,
                     bool front) {
  const double start = Now();
  std::string k(kind);
  // Every user op is one trace; the root span opens when the op starts
  // executing (queue wait is the client's own, not the system's) and closes
  // at completion, so its extent IS the client-observed latency.
  auto wrapped = [this, k, start, body = std::move(body)]() {
    const double op_start = Now();
    op_ctx_ = obs::MintTrace();
    const obs::TraceContext op_ctx = op_ctx_;
    body([this, k, start, op_start, op_ctx]() {
      if (crashed_) {
        return;
      }
      if (op_ctx.active()) {
        obs::RecordSpanIds("serve.op", k, op_start, Now(), op_ctx.trace_id,
                           op_ctx.span_id, 0, {},
                           {{"client", std::to_string(node_)}});
      }
      op_ctx_ = obs::TraceContext{};
      RecordLatency(k.c_str(), start);
      busy_ = false;
      events_->ScheduleAfter(0.0, [this] { StartNext(); });
    });
  };
  if (front) {
    op_queue_.push_front(std::move(wrapped));
  } else {
    op_queue_.push_back(std::move(wrapped));
  }
  StartNext();
}

void Client::StartNext() {
  if (busy_ || crashed_ || op_queue_.empty()) {
    return;
  }
  busy_ = true;
  auto body = std::move(op_queue_.front());
  op_queue_.pop_front();
  body();
}

// ---------------------------------------------------------------------------
// Public operations.

void Client::Open(const std::string& path, OpenCb cb) {
  if (crashed_) {
    cb(CrashedError("client crashed"));
    return;
  }
  Enqueue("open", [this, path, cb](std::function<void()> done) {
    Request req;
    req.op = OpKind::kOpen;
    req.path = path;
    Call(std::move(req), [this, path, cb, done](Response&& resp) {
      if (resp.code != ErrorCode::kOk) {
        cb(ToStatus(resp));
        done();
        return;
      }
      const uint64_t hid = next_handle_++;
      Handle h;
      h.path = path;
      h.fh = resp.fh;
      h.epoch = resp.server_epoch;
      h.open = true;
      h.size = resp.size;
      handles_[hid] = std::move(h);
      cb(hid);
      done();
    });
  });
}

void Client::Read(uint64_t handle, uint64_t offset, uint64_t length, ReadCb cb) {
  if (crashed_) {
    cb(CrashedError("client crashed"));
    return;
  }
  Enqueue("read", [this, handle, offset, length, cb](std::function<void()> done) {
    DoRead(handle, offset, length, /*retried=*/false,
           [cb, done](Result<std::vector<std::byte>> r) {
             cb(std::move(r));
             done();
           });
  });
}

void Client::Write(uint64_t handle, uint64_t offset, std::vector<std::byte> data, StatusCb cb) {
  if (crashed_) {
    cb(CrashedError("client crashed"));
    return;
  }
  Enqueue("write", [this, handle, offset, data = std::move(data),
                    cb](std::function<void()> done) mutable {
    DoWrite(handle, offset, std::move(data), /*retried=*/false, [cb, done](Status st) {
      cb(st);
      done();
    });
  });
}

void Client::Commit(StatusCb cb) {
  if (crashed_) {
    cb(CrashedError("client crashed"));
    return;
  }
  Enqueue("commit", [this, cb](std::function<void()> done) {
    auto dirty_handles = std::make_shared<std::vector<uint64_t>>();
    for (const auto& [id, h] : handles_) {
      if (!h.open) {
        continue;
      }
      for (const auto& [b, blk] : h.blocks) {
        if (blk.dirty) {
          dirty_handles->push_back(id);
          break;
        }
      }
    }
    auto first_error = std::make_shared<Status>(OkStatus());
    auto next = std::make_shared<std::function<void(size_t, bool)>>();
    // Self-reference must be weak: a function object that strongly captures
    // its own shared_ptr is a reference cycle and never frees. Continuations
    // hold the strong refs, so the lock below cannot fail while running.
    std::weak_ptr<std::function<void(size_t, bool)>> weak_next = next;
    *next = [this, dirty_handles, first_error, weak_next, cb, done](size_t i, bool retried) {
      auto self = weak_next.lock();
      if (i >= dirty_handles->size()) {
        CommitSeq(max_write_seq_, [first_error, cb, done](Status st) {
          cb(first_error->ok() ? st : *first_error);
          done();
        });
        return;
      }
      const uint64_t hid = (*dirty_handles)[i];
      // Re-establish the handle first: a commit may be the client's first
      // contact with a restarted server, and EnsureHandle is where the new
      // epoch's re-open + lease reclaim + dirty-block replay happens.
      EnsureHandle(hid, /*force=*/false, [this, hid, i, retried, first_error, self](Status est) {
        if (!est.ok()) {
          if (first_error->ok()) {
            *first_error = est;
          }
          (*self)(i + 1, false);
          return;
        }
        Handle* h = Find(hid);
        std::vector<uint64_t> dirty;
        if (h != nullptr) {
          for (const auto& [b, blk] : h->blocks) {
            if (blk.dirty) {
              dirty.push_back(b);
            }
          }
        }
        WritebackBlocks(hid, std::move(dirty), [this, hid, i, retried, first_error,
                                                self](Status st) {
          if (st.code() == ErrorCode::kNotFound && !retried) {
            // The server forgot this handle (it restarted under us and the
            // write-back's own failure is how we learned). Force a re-open
            // and retry this handle once; EnsureHandle replays what is owed.
            if (Handle* hh = Find(hid)) {
              hh->epoch = 0;
            }
            (*self)(i, true);
            return;
          }
          if (!st.ok() && first_error->ok()) {
            *first_error = st;
          }
          (*self)(i + 1, false);
        });
      });
    };
    (*next)(0, false);
  });
}

void Client::Close(uint64_t handle, StatusCb cb) {
  if (crashed_) {
    cb(CrashedError("client crashed"));
    return;
  }
  Enqueue("close", [this, handle, cb](std::function<void()> done) {
    DoClose(handle, cb, done);
  });
}

void Client::DoClose(uint64_t handle, StatusCb cb, std::function<void()> done) {
  {
    Handle* h = Find(handle);
    if (h == nullptr || !h->open) {
      cb(NotFoundError("unknown handle"));
      done();
      return;
    }
    if (h->recalled) {
      // Close sends a Release; doing that under an in-flight recall flush
      // would free the lease out from under the flush's write-backs. Wait
      // for the ack, then close what's left (nothing dirty by then).
      events_->ScheduleAfter(0.001, [this, handle, cb, done] {
        if (!crashed_) {
          DoClose(handle, cb, done);
        }
      });
      return;
    }
  }
  {
    Handle* h = Find(handle);
    std::vector<uint64_t> dirty;
    for (const auto& [b, blk] : h->blocks) {
      if (blk.dirty) {
        dirty.push_back(b);
      }
    }
    auto first_error = std::make_shared<Status>(OkStatus());
    WritebackBlocks(handle, std::move(dirty), [this, handle, first_error, cb,
                                               done](Status st) {
      if (!st.ok()) {
        *first_error = st;
      }
      CommitSeq(max_write_seq_, [this, handle, first_error, cb, done](Status st2) {
        if (!st2.ok() && first_error->ok()) {
          *first_error = st2;
        }
        Handle* hh = Find(handle);
        if (hh == nullptr) {
          cb(*first_error);
          done();
          return;
        }
        Request req;
        req.op = OpKind::kClose;
        req.fh = hh->fh;
        Call(std::move(req), [this, handle, first_error, cb, done](Response&& resp) {
          if (Handle* h2 = Find(handle)) {
            InvalidateFile(*h2);
            handles_.erase(handle);
          }
          cb(first_error->ok() ? ToStatus(resp) : *first_error);
          done();
        });
      });
    });
  }
}

void Client::Crash() {
  if (crashed_) {
    return;
  }
  crashed_ = true;
  for (auto& [id, out] : outstanding_) {
    events_->Cancel(out.timer);
  }
  outstanding_.clear();
  op_queue_.clear();
  busy_ = false;
  handles_.clear();
  transport_->Deregister(node_);
}

// ---------------------------------------------------------------------------
// Op bodies.

void Client::DoRead(uint64_t handle, uint64_t offset, uint64_t length, bool retried, ReadCb cb) {
  Handle* h = Find(handle);
  if (h == nullptr || !h->open) {
    cb(NotFoundError("unknown handle"));
    return;
  }
  if (h->lease != LeaseKind::kNone && !LeaseValid(*h)) {
    InvalidateFile(*h);  // Lapsed: nothing cached under it can be trusted.
  }
  if (LeaseValid(*h) && h->epoch == server_epoch_ && CacheCovers(*h, offset, length)) {
    auto data = ReadFromCache(*h, offset, length);
    ++stats_.hits;
    obs::Count<"logfs.serve.client.cache_hits">();
    MaybeRenew(handle);
    if (options_.read_hook) {
      options_.read_hook(h->path, offset, data, /*from_cache=*/true);
    }
    cb(std::move(data));
    return;
  }
  ++stats_.misses;
  obs::Count<"logfs.serve.client.cache_misses">();
  EnsureHandle(handle, /*force=*/false, [this, handle, offset, length, retried,
                                         cb](Status st) {
    if (!st.ok()) {
      cb(st);
      return;
    }
    Handle* h2 = Find(handle);
    Request req;
    req.op = OpKind::kRead;
    req.fh = h2->fh;
    req.offset = offset;
    req.length = length;
    const uint64_t sent = ++action_seq_;
    Call(std::move(req), [this, handle, offset, length, retried, sent, cb](Response&& resp) {
      Handle* hh = Find(handle);
      if (hh == nullptr || !hh->open) {
        cb(NotFoundError("handle closed during read"));
        return;
      }
      if (resp.code == ErrorCode::kNotFound && !retried) {
        // The server forgot this handle (silent restart). Re-establish once.
        hh->epoch = 0;
        DoRead(handle, offset, length, /*retried=*/true, cb);
        return;
      }
      if (resp.code != ErrorCode::kOk) {
        cb(ToStatus(resp));
        return;
      }
      // A revoke we acked after sending this request voids its grant: the
      // response reflects a pre-revoke world. The data itself is still a
      // legal read (it took effect while the lease was held server-side),
      // but nothing may be cached or believed from it.
      const bool grant_void = hh->last_revoke_action > sent;
      if (!grant_void && resp.lease != LeaseKind::kNone) {
        hh->lease = resp.lease;
        hh->lease_term = resp.lease_expiry - Now();
        hh->lease_expiry = resp.lease_expiry;
        UpdateSizeFromGrant(*hh, resp.size);
      }
      if (!grant_void) {
        InstallClean(*hh, offset, resp.data);
        if (options_.read_hook) {
          options_.read_hook(hh->path, offset, resp.data, /*from_cache=*/false);
        }
      }
      cb(std::move(resp.data));
    });
  });
}

void Client::DoWrite(uint64_t handle, uint64_t offset, std::vector<std::byte> data, bool retried,
                     StatusCb cb) {
  Handle* h = Find(handle);
  if (h == nullptr || !h->open) {
    cb(NotFoundError("unknown handle"));
    return;
  }
  if (h->lease != LeaseKind::kNone && !LeaseValid(*h)) {
    InvalidateFile(*h);
  }
  if (h->lease == LeaseKind::kWrite && LeaseValid(*h) && h->epoch == server_epoch_ &&
      !h->recalled) {
    MaybeRenew(handle);
    ApplyLocalWrite(handle, offset, std::move(data), cb);
    return;
  }
  EnsureHandle(handle, /*force=*/false, [this, handle, offset, data = std::move(data), retried,
                                         cb](Status st) mutable {
    if (!st.ok()) {
      cb(st);
      return;
    }
    EnsureWriteLease(handle, /*reclaim=*/false,
                     [this, handle, offset, data = std::move(data), retried, cb](Status st2) mutable {
                       if (st2.code() == ErrorCode::kNotFound && !retried) {
                         if (Handle* hh = Find(handle)) {
                           hh->epoch = 0;
                         }
                         DoWrite(handle, offset, std::move(data), /*retried=*/true, cb);
                         return;
                       }
                       if (!st2.ok()) {
                         cb(st2);
                         return;
                       }
                       ApplyLocalWrite(handle, offset, std::move(data), cb);
                     });
  });
}

// ---------------------------------------------------------------------------
// Async building blocks.

void Client::EnsureHandle(uint64_t handle, bool force, StatusCb then) {
  Handle* h = Find(handle);
  if (h == nullptr || !h->open) {
    then(NotFoundError("unknown handle"));
    return;
  }
  if (!force && h->epoch == server_epoch_) {
    then(OkStatus());
    return;
  }
  Request req;
  req.op = OpKind::kOpen;
  req.path = h->path;
  Call(std::move(req), [this, handle, then](Response&& resp) {
    Handle* hh = Find(handle);
    if (hh == nullptr) {
      then(NotFoundError("handle closed during re-open"));
      return;
    }
    if (resp.code != ErrorCode::kOk) {
      then(ToStatus(resp));
      return;
    }
    hh->fh = resp.fh;
    hh->epoch = resp.server_epoch;
    ReplayIfNeeded(handle, resp.size, then);
  });
}

void Client::ReplayIfNeeded(uint64_t handle, uint64_t server_size, StatusCb then) {
  Handle* h = Find(handle);
  std::vector<uint64_t> replay;
  for (const auto& [b, blk] : h->blocks) {
    if (blk.dirty || blk.unstable) {
      replay.push_back(b);
    }
  }
  const bool write_lease_live = h->lease == LeaseKind::kWrite && LeaseValid(*h);
  if (replay.empty()) {
    // Nothing pending. A still-valid lease survives the restart (the grace
    // fence keeps conflicting grants out until it must have expired), so the
    // cache stays warm; an invalid one takes its blocks with it.
    if (h->lease != LeaseKind::kNone && !LeaseValid(*h)) {
      InvalidateFile(*h);
      h->size = server_size;
    }
    then(OkStatus());
    return;
  }
  if (!write_lease_live) {
    // The lease died with the server outage: whatever the durable horizon
    // did not cover is gone. This is the contract — data loss is bounded by
    // the last commit, never silent corruption.
    InvalidateFile(*h);
    h->size = server_size;
    then(OkStatus());
    return;
  }
  // Live write lease: reclaim it through the grace fence, then replay every
  // non-durable block and commit, putting the new incarnation exactly where
  // the old one promised to be.
  EnsureWriteLease(handle, /*reclaim=*/true, [this, handle, replay, then](Status st) {
    Handle* hh = Find(handle);
    if (!st.ok()) {
      if (hh != nullptr) {
        InvalidateFile(*hh);
      }
      then(st);
      return;
    }
    for (uint64_t b : replay) {
      auto it = hh->blocks.find(b);
      if (it != hh->blocks.end()) {
        it->second.dirty = true;
        it->second.unstable = false;
        it->second.server_seq = 0;
      }
    }
    stats_.replays += replay.size();
    obs::Count<"logfs.serve.client.replays">(replay.size());
    WritebackBlocks(handle, replay, [this, then](Status st2) {
      if (!st2.ok()) {
        then(st2);
        return;
      }
      CommitSeq(max_write_seq_, then);
    });
  });
}

void Client::EnsureWriteLease(uint64_t handle, bool reclaim, StatusCb then) {
  Handle* h = Find(handle);
  if (h == nullptr || !h->open) {
    then(NotFoundError("unknown handle"));
    return;
  }
  if (h->recalled) {
    // Mid-recall: asking now would re-grant the very lease we promised to
    // surrender. Wait for the flush to ack, then acquire fresh.
    events_->ScheduleAfter(0.001, [this, handle, reclaim, then] {
      if (!crashed_) {
        EnsureWriteLease(handle, reclaim, then);
      }
    });
    return;
  }
  if (!reclaim && h->lease == LeaseKind::kWrite && LeaseValid(*h) &&
      h->epoch == server_epoch_) {
    then(OkStatus());
    return;
  }
  Request req;
  req.op = OpKind::kGetLease;
  req.fh = h->fh;
  req.lease = LeaseKind::kWrite;
  if (reclaim) {
    req.reclaim = true;
    req.claimed_expiry = h->lease_expiry;
  }
  const uint64_t sent = ++action_seq_;
  Call(std::move(req), [this, handle, reclaim, sent, then](Response&& resp) {
    Handle* hh = Find(handle);
    if (hh == nullptr) {
      then(NotFoundError("handle closed during lease acquire"));
      return;
    }
    if (resp.code != ErrorCode::kOk) {
      then(ToStatus(resp));
      return;
    }
    if (hh->last_revoke_action > sent) {
      // Granted, then revoked and acked before this reply landed: the grant
      // is already gone. Ask again from the post-revoke world.
      EnsureWriteLease(handle, reclaim, then);
      return;
    }
    hh->lease = resp.lease;
    hh->lease_term = resp.lease_expiry - Now();
    hh->lease_expiry = resp.lease_expiry;
    UpdateSizeFromGrant(*hh, resp.size);
    then(OkStatus());
  });
}

void Client::WritebackBlocks(uint64_t handle, std::vector<uint64_t> indices, StatusCb then,
                             obs::TraceContext ctx) {
  Handle* h = Find(handle);
  if (h == nullptr || indices.empty()) {
    then(OkStatus());
    return;
  }
  struct State {
    std::vector<uint64_t> todo;
    size_t next = 0;
    size_t inflight = 0;
    Status first_error = OkStatus();
    bool finished = false;
  };
  auto st = std::make_shared<State>();
  st->todo = std::move(indices);
  auto pump = std::make_shared<std::function<void()>>();
  auto maybe_finish = [st, then]() {
    if (!st->finished && st->inflight == 0 && st->next >= st->todo.size()) {
      st->finished = true;
      then(st->first_error);
    }
  };
  // Weak self-reference: see Commit's chain for why a strong one leaks.
  std::weak_ptr<std::function<void()>> weak_pump = pump;
  *pump = [this, handle, st, weak_pump, maybe_finish, ctx]() {
    auto self = weak_pump.lock();
    Handle* h2 = Find(handle);
    if (h2 == nullptr) {
      if (st->first_error.ok()) {
        st->first_error = NotFoundError("handle closed during write-back");
      }
      st->next = st->todo.size();
      maybe_finish();
      return;
    }
    const uint32_t bs = options_.block_size;
    while (st->next < st->todo.size() && st->inflight < options_.writeback_window) {
      const uint64_t b = st->todo[st->next++];
      auto it = h2->blocks.find(b);
      if (it == h2->blocks.end() || !it->second.dirty) {
        continue;  // Already flushed by a concurrent revoke or commit.
      }
      const uint64_t off = b * bs;
      if (off >= h2->size) {
        continue;
      }
      const uint64_t len = std::min<uint64_t>(bs, h2->size - off);
      Request req;
      req.op = OpKind::kWrite;
      req.fh = h2->fh;
      req.offset = off;
      req.data.assign(it->second.data.begin(), it->second.data.begin() + len);
      ++st->inflight;
      ++stats_.writebacks;
      obs::Count<"logfs.serve.client.writebacks">();
      Call(std::move(req), [this, handle, b, st, self, maybe_finish](Response&& resp) {
        --st->inflight;
        Handle* hh = Find(handle);
        if (resp.code == ErrorCode::kOk && hh != nullptr) {
          auto bit = hh->blocks.find(b);
          if (bit != hh->blocks.end()) {
            bit->second.dirty = false;
            bit->second.unstable = true;
            bit->second.server_seq = resp.mutation_seq;
            bit->second.seq_epoch = resp.server_epoch;
          }
          max_write_seq_ = std::max(max_write_seq_, resp.mutation_seq);
        } else if (resp.code != ErrorCode::kOk && st->first_error.ok()) {
          st->first_error = ToStatus(resp);
        }
        (*self)();
        maybe_finish();
      }, ctx.active() ? &ctx : nullptr);
    }
    maybe_finish();
  };
  (*pump)();
}

void Client::CommitSeq(uint64_t seq, StatusCb then, obs::TraceContext ctx) {
  Request req;
  req.op = OpKind::kCommit;
  req.commit_seq = seq;
  Call(std::move(req), [then](Response&& resp) { then(ToStatus(resp)); },
       ctx.active() ? &ctx : nullptr);
}

void Client::ApplyLocalWrite(uint64_t handle, uint64_t offset, std::vector<std::byte> data,
                             StatusCb then) {
  if (data.empty()) {
    then(OkStatus());
    return;
  }
  Handle* h = Find(handle);
  const uint32_t bs = options_.block_size;
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + data.size() - 1) / bs;
  // Partially-covered edge blocks holding existing data must be fetched
  // before the overwrite lands on top of them (read-modify-write).
  std::vector<uint64_t> need;
  auto consider = [&](uint64_t b, uint64_t cover_begin, uint64_t cover_end) {
    if (cover_begin <= b * bs && cover_end >= (b + 1) * bs) {
      return;  // Fully covered: no base needed.
    }
    if (h->blocks.count(b) != 0) {
      return;
    }
    if (b * bs >= h->size) {
      return;  // Beyond EOF: the implicit base is zeros.
    }
    need.push_back(b);
  };
  consider(first, offset, offset + data.size());
  if (last != first) {
    consider(last, offset, offset + data.size());
  }
  auto apply = [this, handle, offset, data = std::move(data), then]() mutable {
    Handle* hh = Find(handle);
    if (hh == nullptr) {
      then(NotFoundError("handle closed during write"));
      return;
    }
    if (hh->lease != LeaseKind::kWrite || !LeaseValid(*hh) || hh->epoch != server_epoch_ ||
        hh->recalled) {
      // The lease was recalled (or lapsed) between validation and apply —
      // possible when an edge-block fetch yielded to an out-of-band flush.
      // Dirtying the block now would hand it to a dying lease; restart the
      // write from lease acquisition instead.
      DoWrite(handle, offset, std::move(data), /*retried=*/false, then);
      return;
    }
    const uint32_t bsz = options_.block_size;
    uint64_t pos = 0;
    while (pos < data.size()) {
      const uint64_t abs = offset + pos;
      const uint64_t b = abs / bsz;
      const uint64_t in_block = abs % bsz;
      const uint64_t n = std::min<uint64_t>(bsz - in_block, data.size() - pos);
      CachedBlock& blk = hh->blocks[b];
      if (blk.data.size() != bsz) {
        blk.data.assign(bsz, std::byte{0});
      }
      std::copy(data.begin() + static_cast<ptrdiff_t>(pos),
                data.begin() + static_cast<ptrdiff_t>(pos + n),
                blk.data.begin() + static_cast<ptrdiff_t>(in_block));
      blk.dirty = true;
      blk.unstable = false;
      blk.server_seq = 0;
      blk.lru = ++lru_counter_;
      pos += n;
    }
    hh->size = std::max(hh->size, offset + data.size());
    EvictForSpace();
    if (options_.write_hook) {
      options_.write_hook(hh->path, offset, data);
    }
    then(OkStatus());
  };
  if (need.empty()) {
    apply();
    return;
  }
  auto fetch_next = std::make_shared<std::function<void(size_t)>>();
  // Weak self-reference: see Commit's chain for why a strong one leaks.
  std::weak_ptr<std::function<void(size_t)>> weak_fetch = fetch_next;
  *fetch_next = [this, handle, need, weak_fetch, apply, then](size_t i) mutable {
    auto self = weak_fetch.lock();
    if (i >= need.size()) {
      apply();
      return;
    }
    FetchBlock(handle, need[i], [self, i, then](Status st) {
      if (!st.ok()) {
        then(st);
        return;
      }
      (*self)(i + 1);
    });
  };
  (*fetch_next)(0);
}

void Client::FetchBlock(uint64_t handle, uint64_t index, StatusCb then) {
  Handle* h = Find(handle);
  const uint32_t bs = options_.block_size;
  Request req;
  req.op = OpKind::kRead;
  req.fh = h->fh;
  req.offset = index * bs;
  req.length = bs;
  const uint64_t sent = ++action_seq_;
  Call(std::move(req), [this, handle, index, sent, then](Response&& resp) {
    Handle* hh = Find(handle);
    if (hh == nullptr) {
      then(NotFoundError("handle closed during fetch"));
      return;
    }
    if (resp.code != ErrorCode::kOk) {
      then(ToStatus(resp));
      return;
    }
    if (hh->last_revoke_action > sent) {
      FetchBlock(handle, index, then);  // Pre-revoke data: fetch afresh.
      return;
    }
    auto it = hh->blocks.find(index);
    if (it == hh->blocks.end()) {  // Never clobber a newer local version.
      CachedBlock blk;
      blk.data = std::move(resp.data);
      blk.data.resize(options_.block_size, std::byte{0});
      blk.lru = ++lru_counter_;
      hh->blocks[index] = std::move(blk);
      EvictForSpace();
    }
    then(OkStatus());
  });
}

// ---------------------------------------------------------------------------
// Cache mechanics.

bool Client::LeaseValid(const Handle& h) const {
  return h.lease != LeaseKind::kNone && Now() < h.lease_expiry;
}

void Client::UpdateSizeFromGrant(Handle& h, uint64_t server_size) {
  bool pending = false;
  for (const auto& [b, blk] : h.blocks) {
    if (blk.dirty || blk.unstable) {
      pending = true;
      break;
    }
  }
  // With local writes in flight our extent may legitimately exceed the
  // server's; with none, the grant-time size is exact.
  h.size = pending ? std::max(h.size, server_size) : server_size;
}

bool Client::CacheCovers(const Handle& h, uint64_t offset, uint64_t length) const {
  const uint64_t end = std::min(offset + length, h.size);
  if (end <= offset) {
    return true;  // Entirely past EOF: an empty read, served locally.
  }
  const uint32_t bs = options_.block_size;
  for (uint64_t b = offset / bs; b <= (end - 1) / bs; ++b) {
    if (h.blocks.count(b) == 0) {
      return false;
    }
  }
  return true;
}

std::vector<std::byte> Client::ReadFromCache(Handle& h, uint64_t offset, uint64_t length) {
  const uint64_t end = std::min(offset + length, h.size);
  std::vector<std::byte> out;
  if (end <= offset) {
    return out;
  }
  out.resize(end - offset);
  const uint32_t bs = options_.block_size;
  uint64_t pos = 0;
  while (offset + pos < end) {
    const uint64_t abs = offset + pos;
    const uint64_t b = abs / bs;
    const uint64_t in_block = abs % bs;
    const uint64_t n = std::min<uint64_t>(bs - in_block, end - abs);
    CachedBlock& blk = h.blocks[b];
    std::copy(blk.data.begin() + static_cast<ptrdiff_t>(in_block),
              blk.data.begin() + static_cast<ptrdiff_t>(in_block + n),
              out.begin() + static_cast<ptrdiff_t>(pos));
    blk.lru = ++lru_counter_;
    pos += n;
  }
  return out;
}

void Client::InstallClean(Handle& h, uint64_t offset, std::span<const std::byte> data) {
  if (data.empty()) {
    return;
  }
  const uint32_t bs = options_.block_size;
  const uint64_t end = offset + data.size();
  // Cache whole blocks whose start the payload covers. A short tail can only
  // mean EOF (the server clips reads there), so zero-padding it is exact.
  for (uint64_t b = (offset + bs - 1) / bs; b * bs < end; ++b) {
    const uint64_t avail = std::min<uint64_t>(bs, end - b * bs);
    auto it = h.blocks.find(b);
    if (it != h.blocks.end() && (it->second.dirty || it->second.unstable)) {
      continue;  // The local version is newer.
    }
    CachedBlock& blk = h.blocks[b];
    blk.data.assign(bs, std::byte{0});
    std::copy(data.begin() + static_cast<ptrdiff_t>(b * bs - offset),
              data.begin() + static_cast<ptrdiff_t>(b * bs - offset + avail), blk.data.begin());
    blk.dirty = false;
    blk.unstable = false;
    blk.server_seq = 0;
    blk.lru = ++lru_counter_;
  }
  EvictForSpace();
}

void Client::MaybeRenew(uint64_t handle) {
  Handle* h = Find(handle);
  if (h == nullptr || h->lease == LeaseKind::kNone || h->renew_inflight || h->recalled) {
    return;  // Never renew a lease we have been asked to surrender.
  }
  const double remaining = h->lease_expiry - Now();
  if (h->lease_term <= 0.0 || remaining > options_.renew_fraction * h->lease_term) {
    return;
  }
  h->renew_inflight = true;
  Request req;
  req.op = OpKind::kRenew;
  req.fh = h->fh;
  req.lease = h->lease;
  const uint64_t sent = ++action_seq_;
  // Out-of-band: renewal success extends the expiry; failure simply leaves
  // it to lapse, which the next op start detects and invalidates.
  Call(std::move(req), [this, handle, sent](Response&& resp) {
    Handle* hh = Find(handle);
    if (hh == nullptr) {
      return;
    }
    hh->renew_inflight = false;
    if (hh->last_revoke_action > sent) {
      return;  // Renewed a lease we have since surrendered.
    }
    if (resp.code == ErrorCode::kOk && resp.lease != LeaseKind::kNone) {
      hh->lease = resp.lease;
      hh->lease_term = resp.lease_expiry - Now();
      hh->lease_expiry = resp.lease_expiry;
      obs::Count<"logfs.serve.client.renewals">();
    }
  });
}

void Client::InvalidateFile(Handle& h) {
  for (const auto& [b, blk] : h.blocks) {
    if (blk.dirty || blk.unstable) {
      ++stats_.discards;
      obs::Count<"logfs.serve.client.discards">();
    } else {
      ++stats_.invalidations;
      obs::Count<"logfs.serve.client.invalidations">();
    }
  }
  h.blocks.clear();
  h.lease = LeaseKind::kNone;
  h.lease_expiry = 0.0;
}

size_t Client::CleanCount() const {
  size_t clean = 0;
  for (const auto& [id, h] : handles_) {
    for (const auto& [b, blk] : h.blocks) {
      if (!blk.dirty && !blk.unstable) {
        ++clean;
      }
    }
  }
  return clean;
}

void Client::EvictForSpace() {
  while (CleanCount() > options_.cache_blocks) {
    Handle* victim_h = nullptr;
    uint64_t victim_b = 0;
    uint64_t best_lru = ~uint64_t{0};
    for (auto& [id, h] : handles_) {
      for (auto& [b, blk] : h.blocks) {
        if (!blk.dirty && !blk.unstable && blk.lru < best_lru) {
          best_lru = blk.lru;
          victim_h = &h;
          victim_b = b;
        }
      }
    }
    if (victim_h == nullptr) {
      return;
    }
    victim_h->blocks.erase(victim_b);
    ++stats_.evictions;
    obs::Count<"logfs.serve.client.evictions">();
  }
}

// ---------------------------------------------------------------------------
// Introspection.

Client::CacheStats Client::cache_stats() const {
  CacheStats out = stats_;
  for (const auto& [id, h] : handles_) {
    for (const auto& [b, blk] : h.blocks) {
      ++out.cached_blocks;
      if (blk.dirty) {
        ++out.dirty_blocks;
      }
      if (blk.unstable) {
        ++out.unstable_blocks;
      }
    }
  }
  return out;
}

std::vector<Client::HandleInfo> Client::DumpHandles() const {
  std::vector<HandleInfo> out;
  out.reserve(handles_.size());
  for (const auto& [id, h] : handles_) {
    HandleInfo info;
    info.handle = id;
    info.path = h.path;
    info.lease = h.lease;
    info.lease_expiry = h.lease_expiry;
    info.cached = h.blocks.size();
    for (const auto& [b, blk] : h.blocks) {
      if (blk.dirty) {
        ++info.dirty;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

void Client::RecordLatency(const char* kind, double start) {
  const double elapsed = Now() - start;
  OpLatency& lat = latencies_[kind];
  ++lat.count;
  lat.sum_seconds += elapsed;
  lat.max_seconds = std::max(lat.max_seconds, elapsed);
  static obs::Histogram& hist = obs::Registry().GetHistogram(
      "logfs.serve.client.op_latency_us", kLatencyBoundsUs);
  hist.Observe(elapsed * 1e6);
  if (options_.latency_hook) {
    options_.latency_hook(kind, elapsed);
  }
}

}  // namespace logfs::serve
