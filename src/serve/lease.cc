#include "src/serve/lease.h"

#include "src/obs/metrics.h"
#include "src/obs/trace_context.h"

namespace logfs::serve {

void LeaseManager::PruneFile(uint64_t fh, double now) {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return;
  }
  uint64_t pruned = 0;
  for (auto h = it->second.begin(); h != it->second.end();) {
    if (!Valid(h->second, now)) {
      h = it->second.erase(h);
      ++pruned;
    } else {
      ++h;
    }
  }
  if (it->second.empty()) {
    table_.erase(it);
  }
  expiries_ += pruned;
  obs::Count<"logfs.serve.lease.expiries">(pruned);
}

LeaseManager::AcquireResult LeaseManager::Acquire(uint64_t fh, uint64_t client,
                                                  LeaseKind kind, double now) {
  AcquireResult result;
  if (kind == LeaseKind::kNone) {
    return result;
  }
  PruneFile(fh, now);
  auto& holders = table_[fh];
  for (const auto& [holder, record] : holders) {
    if (holder == client) {
      continue;  // Own lease never conflicts; it is upgraded below.
    }
    const bool conflict = kind == LeaseKind::kWrite || record.kind == LeaseKind::kWrite;
    if (conflict) {
      result.conflicts.push_back(holder);
    }
  }
  if (!result.conflicts.empty()) {
    if (holders.empty()) {
      table_.erase(fh);  // PruneFile created no entry; keep the table tight.
    }
    return result;
  }
  LeaseRecord& mine = holders[client];
  // Never downgrade: a write holder asking for read keeps write.
  if (mine.kind != LeaseKind::kWrite) {
    mine.kind = kind;
  }
  mine.expires_at = now + lease_seconds_;
  mine.granted_at = now;
  mine.recall_posted = false;
  // The server executes requests under their trace scope, so the ambient
  // context here is the acquiring request's; later waiters link to it.
  mine.trace_id = obs::CurrentTraceContext().trace_id;
  result.granted = true;
  result.expires_at = mine.expires_at;
  ++grants_;
  obs::Count<"logfs.serve.lease.grants">();
  return result;
}

bool LeaseManager::Renew(uint64_t fh, uint64_t client, double now, double* expires_at) {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return false;
  }
  auto h = it->second.find(client);
  if (h == it->second.end() || !Valid(h->second, now)) {
    return false;  // now >= expires_at: at the expiry tick the lease is gone.
  }
  if (h->second.recall_posted) {
    // A recalled lease is frozen: extending it would push out the expiry
    // backstop the waiting writer depends on. The holder must finish the
    // recall and re-acquire.
    return false;
  }
  h->second.expires_at = now + lease_seconds_;
  if (expires_at != nullptr) {
    *expires_at = h->second.expires_at;
  }
  ++renewals_;
  obs::Count<"logfs.serve.lease.renewals">();
  return true;
}

bool LeaseManager::Release(uint64_t fh, uint64_t client) {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return false;
  }
  const size_t erased = it->second.erase(client);
  if (it->second.empty()) {
    table_.erase(it);
  }
  if (erased > 0) {
    ++releases_;
    obs::Count<"logfs.serve.lease.releases">();
  }
  return erased > 0;
}

size_t LeaseManager::ReleaseAll(uint64_t client) {
  size_t released = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    released += it->second.erase(client);
    if (it->second.empty()) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  releases_ += released;
  obs::Count<"logfs.serve.lease.releases">(released);
  return released;
}

size_t LeaseManager::ExpireDue(double now) {
  size_t pruned = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    for (auto h = it->second.begin(); h != it->second.end();) {
      if (!Valid(h->second, now)) {
        h = it->second.erase(h);
        ++pruned;
      } else {
        ++h;
      }
    }
    if (it->second.empty()) {
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
  expiries_ += pruned;
  obs::Count<"logfs.serve.lease.expiries">(pruned);
  return pruned;
}

LeaseKind LeaseManager::Held(uint64_t fh, uint64_t client, double now) const {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return LeaseKind::kNone;
  }
  auto h = it->second.find(client);
  if (h == it->second.end() || !Valid(h->second, now)) {
    return LeaseKind::kNone;
  }
  return h->second.kind;
}

double LeaseManager::HeldSince(uint64_t fh, uint64_t client) const {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return 0.0;
  }
  auto h = it->second.find(client);
  return h == it->second.end() ? 0.0 : h->second.granted_at;
}

void LeaseManager::MarkRecallPosted(uint64_t fh, uint64_t client) {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return;
  }
  auto h = it->second.find(client);
  if (h != it->second.end()) {
    h->second.recall_posted = true;
  }
}

uint64_t LeaseManager::HolderTrace(uint64_t fh, uint64_t client) const {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return 0;
  }
  auto h = it->second.find(client);
  return h == it->second.end() ? 0 : h->second.trace_id;
}

bool LeaseManager::RecallPosted(uint64_t fh, uint64_t client) const {
  auto it = table_.find(fh);
  if (it == table_.end()) {
    return false;
  }
  auto h = it->second.find(client);
  return h != it->second.end() && h->second.recall_posted;
}

std::vector<LeaseManager::TableEntry> LeaseManager::Dump(double now) const {
  std::vector<TableEntry> entries;
  for (const auto& [fh, holders] : table_) {
    for (const auto& [client, record] : holders) {
      if (Valid(record, now)) {
        entries.push_back(TableEntry{fh, client, record});
      }
    }
  }
  return entries;
}

size_t LeaseManager::ActiveCount(double now) const {
  size_t n = 0;
  for (const auto& [fh, holders] : table_) {
    for (const auto& [client, record] : holders) {
      n += Valid(record, now) ? 1 : 0;
    }
  }
  return n;
}

}  // namespace logfs::serve
