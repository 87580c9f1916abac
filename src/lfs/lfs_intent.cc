#include "src/lfs/lfs_intent.h"

#include <algorithm>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/obs/space_observatory.h"
#include "src/util/crc32.h"
#include "src/util/serializer.h"

namespace logfs {

Status EncodeIntentSlot(const IntentRecord& rec, IntentState state,
                        std::span<std::byte> slot) {
  if (slot.size() < kIntentSlotBytes) {
    return InvalidArgumentError("intent slot buffer too small");
  }
  if (rec.from_name.size() > kMaxNameLen || rec.to_name.size() > kMaxNameLen) {
    return NameTooLongError("intent record name too long");
  }
  std::memset(slot.data(), 0, kIntentSlotBytes);
  BufferWriter writer(slot);
  RETURN_IF_ERROR(writer.WriteU32(kIntentRecordMagic));
  RETURN_IF_ERROR(writer.WriteU32(0));  // CRC placeholder, patched below.
  RETURN_IF_ERROR(writer.WriteU64(rec.op_id));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(state)));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(rec.kind)));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(rec.child_type)));
  RETURN_IF_ERROR(writer.WriteU8(static_cast<uint8_t>(rec.victim_type)));
  RETURN_IF_ERROR(writer.WriteU32(rec.from_dir));
  RETURN_IF_ERROR(writer.WriteU32(rec.to_dir));
  RETURN_IF_ERROR(writer.WriteU32(rec.child));
  RETURN_IF_ERROR(writer.WriteU32(rec.victim));
  RETURN_IF_ERROR(writer.WriteString(rec.from_name));
  RETURN_IF_ERROR(writer.WriteString(rec.to_name));
  const size_t payload = writer.offset();
  const uint32_t crc = Crc32(slot.subspan(0, payload));
  RETURN_IF_ERROR(writer.SeekTo(4));
  RETURN_IF_ERROR(writer.WriteU32(crc));
  return OkStatus();
}

Result<std::pair<IntentRecord, IntentState>> DecodeIntentSlot(
    std::span<const std::byte> slot) {
  BufferReader reader(slot);
  ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kIntentRecordMagic) {
    return CorruptedError("not an intent record");
  }
  ASSIGN_OR_RETURN(uint32_t stored_crc, reader.ReadU32());
  IntentRecord rec;
  ASSIGN_OR_RETURN(rec.op_id, reader.ReadU64());
  ASSIGN_OR_RETURN(uint8_t state_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(uint8_t kind_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(uint8_t child_type_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(uint8_t victim_type_raw, reader.ReadU8());
  ASSIGN_OR_RETURN(rec.from_dir, reader.ReadU32());
  ASSIGN_OR_RETURN(rec.to_dir, reader.ReadU32());
  ASSIGN_OR_RETURN(rec.child, reader.ReadU32());
  ASSIGN_OR_RETURN(rec.victim, reader.ReadU32());
  ASSIGN_OR_RETURN(rec.from_name, reader.ReadString());
  ASSIGN_OR_RETURN(rec.to_name, reader.ReadString());
  const size_t payload = reader.offset();
  std::vector<std::byte> copy(slot.begin(), slot.begin() + payload);
  std::memset(copy.data() + 4, 0, 4);
  if (stored_crc != Crc32(copy)) {
    return CorruptedError("intent record CRC mismatch");
  }
  if (state_raw != static_cast<uint8_t>(IntentState::kPending) &&
      state_raw != static_cast<uint8_t>(IntentState::kRetired)) {
    return CorruptedError("intent record state out of range");
  }
  if (kind_raw < static_cast<uint8_t>(IntentKind::kCreate) ||
      kind_raw > static_cast<uint8_t>(IntentKind::kRename)) {
    return CorruptedError("intent record kind out of range");
  }
  rec.kind = static_cast<IntentKind>(kind_raw);
  rec.child_type = static_cast<FileType>(child_type_raw);
  rec.victim_type = static_cast<FileType>(victim_type_raw);
  return std::make_pair(std::move(rec), static_cast<IntentState>(state_raw));
}

IntentLog::IntentLog(BlockDevice* device, uint64_t first_sector, uint64_t sector_count)
    : device_(device), first_sector_(first_sector), slots_(kIntentSlots) {
  (void)sector_count;  // Geometry is validated by the formatter.
}

Result<std::vector<LoadedIntent>> IntentLog::LoadAll() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LoadedIntent> out;
  std::vector<std::byte> buf(kIntentSlotBytes);
  for (uint32_t slot = 0; slot < kIntentSlots; ++slot) {
    Status read = device_->ReadSectors(SlotSector(slot), buf);
    if (!read.ok()) {
      // An unreadable slot can hide a pending intent: mark it bad (never
      // reused) and let the caller decide to fall back to a full repair
      // walk. kCrashed is not a media verdict, so propagate it.
      if (read.code() == ErrorCode::kCrashed) {
        return read;
      }
      slots_[slot].state = SlotState::kBad;
      obs::Count<"logfs.intent.slot_read_errors">();
      continue;
    }
    auto decoded = DecodeIntentSlot(buf);
    if (!decoded.ok()) {
      slots_[slot].state = SlotState::kFree;  // Garbage: free by contract.
      continue;
    }
    next_op_id_ = std::max(next_op_id_, decoded->first.op_id + 1);
    if (decoded->second == IntentState::kPending) {
      slots_[slot].state = SlotState::kApplied;  // Live until retired.
      slots_[slot].rec = decoded->first;
      slots_[slot].covers.clear();
    } else {
      slots_[slot].state = SlotState::kFree;  // Retired: reusable.
    }
    out.push_back(LoadedIntent{slot, decoded->second, std::move(decoded->first)});
  }
  loaded_ = true;
  return out;
}

Result<std::vector<IntentRecord>> IntentLog::LoadPending() {
  ASSIGN_OR_RETURN(std::vector<LoadedIntent> all, LoadAll());
  std::vector<IntentRecord> pending;
  for (LoadedIntent& li : all) {
    if (li.state == IntentState::kPending) {
      pending.push_back(std::move(li.record));
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const IntentRecord& a, const IntentRecord& b) { return a.op_id < b.op_id; });
  return pending;
}

Status IntentLog::WriteSlot(uint32_t slot, const IntentRecord& rec, IntentState state,
                            bool synchronous) {
  std::vector<std::byte> buf(kIntentSlotBytes);
  RETURN_IF_ERROR(EncodeIntentSlot(rec, state, buf));
  Status wrote = device_->WriteSectors(SlotSector(slot), buf,
                                       IoOptions{.synchronous = synchronous});
  if (wrote.ok()) {
    obs::RecordWrite(obs::IoSource::kIntent, buf.size());
  }
  return wrote;
}

Result<uint32_t> IntentLog::Publish(IntentRecord* rec) {
  std::lock_guard<std::mutex> lock(mu_);
  rec->op_id = next_op_id_;
  bool any_free = false;
  for (uint32_t slot = 0; slot < kIntentSlots; ++slot) {
    if (slots_[slot].state != SlotState::kFree) {
      continue;
    }
    any_free = true;
    // Synchronous: the intent must be durable — and a barrier against
    // reordering — before the caller touches the first shard.
    Status written = WriteSlot(slot, *rec, IntentState::kPending, /*synchronous=*/true);
    if (!written.ok()) {
      if (written.code() == ErrorCode::kCrashed) {
        return written;
      }
      // Persistent media failure on this slot: stop using it, try another.
      slots_[slot].state = SlotState::kBad;
      obs::Count<"logfs.intent.slot_write_errors">();
      continue;
    }
    ++next_op_id_;
    slots_[slot].state = SlotState::kPublished;
    slots_[slot].rec = *rec;
    slots_[slot].covers.clear();
    obs::Count<"logfs.intent.published">();
    return slot;
  }
  bool any_live = false;
  for (const Slot& s : slots_) {
    any_live = any_live || s.state == SlotState::kPublished || s.state == SlotState::kApplied;
  }
  if (any_free || !any_live) {
    // Every free slot failed its write — or no slot is free and none holds
    // a live intent (they are all media-dead): the region is unusable, and
    // no amount of draining can help. The caller aborts the op unstarted.
    obs::Count<"logfs.intent.media_aborts">();
    return MediaError("intent region unwritable; cross-shard operation aborted");
  }
  return BusyError("intent ring full");
}

void IntentLog::MarkApplied(uint32_t slot,
                            std::vector<std::pair<uint32_t, uint64_t>> covers) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= slots_.size() || slots_[slot].state != SlotState::kPublished) {
    return;
  }
  slots_[slot].state = SlotState::kApplied;
  slots_[slot].covers = std::move(covers);
}

Status IntentLog::RetireCovered(std::span<const uint64_t> synced_seqs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    Slot& s = slots_[slot];
    if (s.state != SlotState::kApplied || s.covers.empty()) {
      continue;  // Published-not-applied: its op is still in flight.
    }
    bool durable = true;
    for (const auto& [shard, seq] : s.covers) {
      if (shard >= synced_seqs.size() || synced_seqs[shard] < seq) {
        durable = false;
        break;
      }
    }
    if (!durable) {
      continue;
    }
    // Best-effort, non-synchronous: a lost retire only means recovery
    // re-probes a fully durable op and retires it then.
    Status written = WriteSlot(slot, s.rec, IntentState::kRetired, /*synchronous=*/false);
    if (!written.ok()) {
      if (written.code() == ErrorCode::kCrashed) {
        return written;
      }
      s.state = SlotState::kBad;
      obs::Count<"logfs.intent.slot_write_errors">();
      continue;
    }
    s.state = SlotState::kFree;
    obs::Count<"logfs.intent.retired">();
  }
  return OkStatus();
}

Status IntentLog::RetireSlot(uint32_t slot, const IntentRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot >= slots_.size()) {
    return InvalidArgumentError("intent slot out of range");
  }
  Status written = WriteSlot(slot, rec, IntentState::kRetired, /*synchronous=*/false);
  if (!written.ok()) {
    if (written.code() != ErrorCode::kCrashed) {
      slots_[slot].state = SlotState::kBad;
      obs::Count<"logfs.intent.slot_write_errors">();
    }
    return written;
  }
  slots_[slot].state = SlotState::kFree;
  obs::Count<"logfs.intent.retired">();
  return OkStatus();
}

uint32_t IntentLog::PendingCount() {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t n = 0;
  for (const Slot& s : slots_) {
    if (s.state == SlotState::kPublished || s.state == SlotState::kApplied) {
      ++n;
    }
  }
  return n;
}

uint64_t IntentLog::next_op_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_id_;
}

}  // namespace logfs
