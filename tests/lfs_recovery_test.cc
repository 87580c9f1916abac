// Crash-recovery tests: checkpoint restore, roll-forward over segment
// summaries, torn-write atomicity, crash-during-checkpoint alternation, and
// a crash-anywhere property sweep driven by fault injection, and the cost
// of recovery itself: one summary walk per mount, and an exact usage
// rebuild that covers indirect blocks.
#include <gtest/gtest.h>

#include <map>

#include "src/disk/fault_disk.h"
#include "src/lfs/lfs_check.h"
#include "src/lfs/lfs_segment.h"
#include "src/obs/metrics.h"
#include "tests/fs_fixture.h"

namespace logfs {
namespace {

constexpr uint64_t kSectors = 131072;

struct CrashRig {
  CrashRig() : clock(), inner(kSectors, &clock), fault(&inner) {
    Status formatted = LfsFileSystem::Format(&inner, LfsInstance::DefaultParams());
    if (!formatted.ok()) {
      std::abort();
    }
  }

  Result<std::unique_ptr<LfsFileSystem>> MountFaulty(bool roll_forward = true) {
    LfsFileSystem::Options options;
    options.roll_forward = roll_forward;
    return LfsFileSystem::Mount(&fault, &clock, nullptr, options);
  }

  // "Reboot": clear the crash and mount from the surviving image.
  Result<std::unique_ptr<LfsFileSystem>> Reboot(bool roll_forward = true) {
    fault.Reset();
    LfsFileSystem::Options options;
    options.roll_forward = roll_forward;
    return LfsFileSystem::Mount(&inner, &clock, nullptr, options);
  }

  SimClock clock;
  MemoryDisk inner;
  FaultInjectingDisk fault;
};

Status ExpectClean(LfsFileSystem* fs) {
  LfsChecker checker(fs);
  ASSIGN_OR_RETURN(LfsCheckReport report, checker.Check());
  if (!report.ok()) {
    return CorruptedError(report.Summary());
  }
  return OkStatus();
}

TEST(LfsRecoveryTest, CheckpointRestoreWithoutRollForward) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/durable", TestBytes(5000, 1)).ok());
    ASSERT_TRUE((*fs)->Sync().ok());  // Checkpoint.
    ASSERT_TRUE(paths.WriteFile("/volatile", TestBytes(5000, 2)).ok());
    // Crash with /volatile only in the cache.
    rig.fault.CrashNow();
  }
  auto fs = rig.Reboot(/*roll_forward=*/false);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  auto durable = paths.ReadFile("/durable");
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(*durable, TestBytes(5000, 1));
  EXPECT_FALSE(paths.Exists("/volatile"));  // Lost: written after checkpoint.
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

TEST(LfsRecoveryTest, RollForwardRecoversFsyncedData) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE((*fs)->Sync().ok());
    // Written and fsynced after the checkpoint: lives only in the log tail.
    ASSERT_TRUE(paths.WriteFile("/after", TestBytes(9000, 3)).ok());
    auto ino = paths.Resolve("/after");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*fs)->Fsync(*ino).ok());
    // The root directory's new block and inode were flushed with the file's
    // partial segment (same write-back), so the name is recoverable too.
    rig.fault.CrashNow();
  }
  auto fs = rig.Reboot(/*roll_forward=*/true);
  ASSERT_TRUE(fs.ok());
  EXPECT_GT((*fs)->rolled_forward_partials(), 0u);
  PathFs paths(fs->get());
  auto back = paths.ReadFile("/after");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, TestBytes(9000, 3));
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

TEST(LfsRecoveryTest, WithoutRollForwardFsyncedDataIsInvisible) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE((*fs)->Sync().ok());
    ASSERT_TRUE(paths.WriteFile("/after", TestBytes(1000, 4)).ok());
    auto ino = paths.Resolve("/after");
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE((*fs)->Fsync(*ino).ok());
    rig.fault.CrashNow();
  }
  auto fs = rig.Reboot(/*roll_forward=*/false);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  EXPECT_FALSE(paths.Exists("/after"));
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

TEST(LfsRecoveryTest, RollForwardAppliesDeletes) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/doomed", TestBytes(2000, 5)).ok());
    ASSERT_TRUE((*fs)->Sync().ok());
    // Delete after the checkpoint; flush the meta-log via fsync of the root.
    ASSERT_TRUE(paths.Unlink("/doomed").ok());
    ASSERT_TRUE((*fs)->Fsync(kRootIno).ok());
    rig.fault.CrashNow();
  }
  auto fs = rig.Reboot();
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  EXPECT_FALSE(paths.Exists("/doomed"));
  // The freed inode must not be resurrected as an orphan either.
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

TEST(LfsRecoveryTest, TornLogWriteIsAtomicallyDiscarded) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE((*fs)->Sync().ok());
    ASSERT_TRUE(paths.WriteFile("/torn", TestBytes(100000, 6)).ok());
    // The next log write tears after 5 sectors: the partial segment's CRC
    // cannot validate, so recovery must discard it entirely.
    rig.fault.CrashAfterWrites(0, /*torn_sectors=*/5);
    (void)(*fs)->Sync();  // Fails with kCrashed.
  }
  auto fs = rig.Reboot();
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  EXPECT_FALSE(paths.Exists("/torn"));
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

TEST(LfsRecoveryTest, CrashDuringCheckpointFallsBackToOtherRegion) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/stable", TestBytes(3000, 7)).ok());
    ASSERT_TRUE((*fs)->Sync().ok());  // Good checkpoint in one region.
    ASSERT_TRUE(paths.WriteFile("/next", TestBytes(3000, 8)).ok());
    // Count the writes in the next checkpoint up to the region write, then
    // tear the region write itself. The checkpoint-region write is the only
    // *synchronous* write in a checkpoint, so crash on it specifically:
    // flush everything first, then arm a torn write for the sync region.
    ASSERT_TRUE((*fs)->Fsync(paths.Resolve("/next").value()).ok());
    rig.fault.CrashAfterWrites(1, /*torn_sectors=*/2);  // imap/usage flush + region.
    (void)(*fs)->Checkpoint();
  }
  auto fs = rig.Reboot(/*roll_forward=*/false);
  ASSERT_TRUE(fs.ok());
  PathFs paths(fs->get());
  // The older checkpoint still mounts the stable file.
  EXPECT_TRUE(paths.Exists("/stable"));
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

TEST(LfsRecoveryTest, RemountIsIdempotent) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/f", TestBytes(1234, 9)).ok());
  }  // Destructor syncs.
  for (int i = 0; i < 3; ++i) {
    auto fs = rig.Reboot();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    auto back = paths.ReadFile("/f");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, TestBytes(1234, 9));
    EXPECT_TRUE(ExpectClean(fs->get()).ok());
  }
}

// Double crash: the machine dies again *during the recovery itself* (the
// roll-forward's own checkpoint writes). The second recovery must still
// mount from the old checkpoint and roll the same log forward — nothing in
// the first, interrupted recovery may have damaged the rolled log.
class DoubleCrashTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DoubleCrashTest, CrashDuringRecoveryIsItselfRecoverable) {
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE((*fs)->Sync().ok());
    // Post-checkpoint data, durable only via the log tail.
    ASSERT_TRUE(paths.WriteFile("/tail1", TestBytes(6000, 1)).ok());
    ASSERT_TRUE(paths.WriteFile("/tail2", TestBytes(6000, 2)).ok());
    ASSERT_TRUE((*fs)->Fsync(kRootIno).ok());
    rig.fault.CrashNow();  // First crash.
  }
  // First recovery attempt: dies after N writes (inside the recovery
  // checkpoint: imap/usage partials or the region write).
  rig.fault.Reset();
  rig.fault.CrashAfterWrites(GetParam(), GetParam() % 3);
  {
    auto fs = rig.MountFaulty();
    // Mount may fail with kCrashed mid-recovery; both outcomes are fine.
    (void)fs;
  }
  // Second recovery on the surviving image must fully succeed.
  rig.fault.Reset();
  auto fs = rig.Reboot();
  ASSERT_TRUE(fs.ok()) << "second recovery after crash point " << GetParam() << ": "
                       << fs.status().ToString();
  PathFs paths(fs->get());
  auto t1 = paths.ReadFile("/tail1");
  ASSERT_TRUE(t1.ok()) << "crash point " << GetParam();
  EXPECT_EQ(*t1, TestBytes(6000, 1));
  auto t2 = paths.ReadFile("/tail2");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, TestBytes(6000, 2));
  EXPECT_TRUE(ExpectClean(fs->get()).ok()) << "crash point " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, DoubleCrashTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 8));

// Property sweep: run a workload, crash after the Nth device write for many
// N, remount with roll-forward, and require a consistent file system whose
// every surviving file has prefix-consistent content.
class CrashAnywhereTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashAnywhereTest, RemountsConsistently) {
  CrashRig rig;
  const uint64_t crash_after = GetParam();
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    rig.fault.CrashAfterWrites(crash_after, /*torn_sectors=*/crash_after % 7);
    // A workload with creates, writes, deletes, syncs; it dies somewhere.
    for (int i = 0; i < 40; ++i) {
      Status status = paths.WriteFile("/w" + std::to_string(i), TestBytes(20000, i));
      if (!status.ok()) {
        break;
      }
      if (i % 5 == 4) {
        if (!paths.Unlink("/w" + std::to_string(i - 2)).ok()) {
          break;
        }
      }
      if (i % 7 == 6) {
        if (!(*fs)->Sync().ok()) {
          break;
        }
      }
    }
    rig.fault.CrashNow();  // If the workload survived, crash at the end.
  }
  auto fs = rig.Reboot();
  ASSERT_TRUE(fs.ok()) << "mount after crash point " << crash_after << " failed: "
                       << fs.status().ToString();
  // The volume is internally consistent...
  ASSERT_TRUE(ExpectClean(fs->get()).ok()) << "crash point " << crash_after;
  // ...and any surviving file has exactly the content written to it.
  PathFs paths(fs->get());
  for (int i = 0; i < 40; ++i) {
    const std::string name = "/w" + std::to_string(i);
    if (!paths.Exists(name)) {
      continue;
    }
    auto back = paths.ReadFile(name);
    ASSERT_TRUE(back.ok());
    if (!back->empty()) {
      EXPECT_EQ(*back, TestBytes(back->size(), i)) << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CrashAnywhereTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                                           377, 610));

// Torn-partial-segment sweep: the log write carrying a fsynced file tears
// after N sectors, for N ranging from "one sector" through "the summary
// block exactly" (8 = one 4 KB block) to "most of the segment". Every tear
// must be atomically discarded by roll-forward — the summary CRC covers the
// content blocks, so a summary whose content never landed cannot validate —
// while everything durable before the tear survives.
class TornPartialSegmentTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TornPartialSegmentTest, RollForwardDiscardsTheTearKeepsThePast) {
  const uint64_t torn_sectors = GetParam();
  CrashRig rig;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/durable", TestBytes(5000, 1)).ok());
    ASSERT_TRUE((*fs)->Sync().ok());  // Checkpointed: survives any crash.
    // Fsynced after the checkpoint: durable only through roll-forward.
    ASSERT_TRUE(paths.WriteFile("/early", TestBytes(9000, 2)).ok());
    auto early = paths.Resolve("/early");
    ASSERT_TRUE(early.ok());
    ASSERT_TRUE((*fs)->Fsync(*early).ok());
    // This file's partial segment tears mid-transfer.
    ASSERT_TRUE(paths.WriteFile("/late", TestBytes(100000, 3)).ok());
    auto late = paths.Resolve("/late");
    ASSERT_TRUE(late.ok());
    rig.fault.CrashAfterSectors(torn_sectors, /*torn=*/true);
    EXPECT_EQ((*fs)->Fsync(*late).code(), ErrorCode::kCrashed);
  }
  auto fs = rig.Reboot(/*roll_forward=*/true);
  ASSERT_TRUE(fs.ok()) << "torn=" << torn_sectors << ": " << fs.status().ToString();
  PathFs paths(fs->get());
  auto durable = paths.ReadFile("/durable");
  ASSERT_TRUE(durable.ok()) << "torn=" << torn_sectors;
  EXPECT_EQ(*durable, TestBytes(5000, 1));
  auto early = paths.ReadFile("/early");
  ASSERT_TRUE(early.ok()) << "torn=" << torn_sectors;
  EXPECT_EQ(*early, TestBytes(9000, 2));
  EXPECT_FALSE(paths.Exists("/late")) << "torn=" << torn_sectors;
  EXPECT_TRUE(ExpectClean(fs->get()).ok()) << "torn=" << torn_sectors;
}

INSTANTIATE_TEST_SUITE_P(TornSectors, TornPartialSegmentTest,
                         ::testing::Values(1, 4, 7, 8, 9, 15, 16, 31, 64, 128));

// Counts, per sector address, the block-sized reads whose bytes parse as a
// partial-segment summary (magic and header CRC).
class SummaryReadCounter : public BlockDevice {
 public:
  SummaryReadCounter(BlockDevice* inner, uint32_t block_size)
      : inner_(inner), block_size_(block_size) {}

  Status ReadSectors(uint64_t first, std::span<std::byte> out, IoOptions options = {}) override {
    RETURN_IF_ERROR(inner_->ReadSectors(first, out, options));
    if (out.size() == block_size_ && PeekSummary(out, block_size_).ok()) {
      ++reads_[first];
    }
    return OkStatus();
  }
  Status WriteSectors(uint64_t first, std::span<const std::byte> data,
                      IoOptions options = {}) override {
    return inner_->WriteSectors(first, data, options);
  }
  Status Flush() override { return inner_->Flush(); }
  uint64_t sector_count() const override { return inner_->sector_count(); }
  const DiskStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  const std::map<uint64_t, int>& reads() const { return reads_; }

 private:
  BlockDevice* inner_;
  uint32_t block_size_;
  std::map<uint64_t, int> reads_;
};

struct PartialAt {
  uint32_t segment;
  uint32_t offset;
  uint32_t nblocks;
  uint64_t seq;
};

// Every partial segment on the image, found by following each segment's
// summary chain the way mount does.
std::vector<PartialAt> WalkLog(BlockDevice* disk, LfsSuperblock* sb_out) {
  std::vector<std::byte> block(4096);
  EXPECT_TRUE(disk->ReadSectors(0, block).ok());
  Result<LfsSuperblock> sb = DecodeLfsSuperblock(block);
  EXPECT_TRUE(sb.ok());
  *sb_out = *sb;
  std::vector<PartialAt> partials;
  const uint32_t bps = sb->BlocksPerSegment();
  for (uint32_t seg = 0; seg < sb->num_segments; ++seg) {
    uint32_t offset = 0;
    while (offset + 1 < bps && disk->ReadSectors(sb->SegmentBlockSector(seg, offset), block).ok()) {
      Result<SummaryPeek> peek = PeekSummary(block, sb->block_size);
      if (!peek.ok() || offset + 1 + peek->nblocks > bps) {
        break;
      }
      partials.push_back(PartialAt{seg, offset, peek->nblocks, peek->seq});
      offset += 1 + peek->nblocks;
    }
  }
  return partials;
}

uint64_t MaxSeq(const std::vector<PartialAt>& partials) {
  uint64_t max_seq = 0;
  for (const PartialAt& p : partials) {
    max_seq = std::max(max_seq, p.seq);
  }
  return max_seq;
}

uint64_t SummaryReadsCounted() {
  return obs::Registry().GetCounter("logfs.recovery.summary_reads").Value();
}

// Mount reads each summary block once: one walk seeds the block-checksum
// index and finds the roll-forward candidates. Every partial written after
// the checkpoint is intact and in sequence, so all of them are rolled.
TEST(LfsRecoveryTest, MountWalksEachSummaryOnce) {
  CrashRig rig;
  uint64_t checkpointed_max_seq = 0;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    for (int i = 0; i < 6; ++i) {
      const std::string name = "/pre" + std::to_string(i);
      ASSERT_TRUE(paths.WriteFile(name, TestBytes(20000, i)).ok());
      ASSERT_TRUE((*fs)->Fsync(paths.Resolve(name).value()).ok());
    }
    ASSERT_TRUE((*fs)->Sync().ok());
    LfsSuperblock sb;
    checkpointed_max_seq = MaxSeq(WalkLog(&rig.inner, &sb));
    for (int i = 0; i < 4; ++i) {
      const std::string name = "/post" + std::to_string(i);
      ASSERT_TRUE(paths.WriteFile(name, TestBytes(9000, 10 + i)).ok());
      ASSERT_TRUE((*fs)->Fsync(paths.Resolve(name).value()).ok());
    }
    rig.fault.CrashNow();
  }
  rig.fault.Reset();
  LfsSuperblock sb;
  const std::vector<PartialAt> partials = WalkLog(&rig.inner, &sb);
  uint64_t post_checkpoint = 0;
  for (const PartialAt& p : partials) {
    post_checkpoint += p.seq > checkpointed_max_seq ? 1 : 0;
  }
  ASSERT_GE(post_checkpoint, 4u);

  SummaryReadCounter counter(&rig.inner, sb.block_size);
  const uint64_t counted0 = SummaryReadsCounted();
  auto fs = LfsFileSystem::Mount(&counter, &rig.clock, nullptr);
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ((*fs)->rolled_forward_partials(), post_checkpoint);
  EXPECT_EQ(counter.reads().size(), partials.size());
  for (const auto& [sector, reads] : counter.reads()) {
    EXPECT_EQ(reads, 1) << "summary block at sector " << sector;
  }
  if (obs::kMetricsEnabled) {
    // The walk also reads the block that ends each segment's chain.
    EXPECT_GE(SummaryReadsCounted() - counted0, partials.size());
    EXPECT_LE(SummaryReadsCounted() - counted0, partials.size() + sb.num_segments);
  }
  PathFs paths(fs->get());
  for (int i = 0; i < 4; ++i) {
    auto back = paths.ReadFile("/post" + std::to_string(i));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, TestBytes(9000, 10 + i));
  }
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

// A candidate that fails validation ends its segment's roll-forward, even
// when a header-valid partial follows it. The follower here is a verbatim
// copy of the torn partial, so it would validate, and carry the very
// sequence number recovery needs next, if the segment's scan went on.
TEST(LfsRecoveryTest, TornCandidateEndsItsSegment) {
  CrashRig rig;
  uint64_t checkpointed_max_seq = 0;
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE(paths.WriteFile("/durable", TestBytes(5000, 1)).ok());
    ASSERT_TRUE((*fs)->Sync().ok());
    LfsSuperblock sb;
    checkpointed_max_seq = MaxSeq(WalkLog(&rig.inner, &sb));
    ASSERT_TRUE(paths.WriteFile("/after", TestBytes(9000, 2)).ok());
    ASSERT_TRUE((*fs)->Fsync(paths.Resolve("/after").value()).ok());
    rig.fault.CrashNow();
  }
  rig.fault.Reset();
  LfsSuperblock sb;
  const std::vector<PartialAt> partials = WalkLog(&rig.inner, &sb);
  const PartialAt* first = nullptr;
  for (const PartialAt& p : partials) {
    if (p.seq > checkpointed_max_seq && (first == nullptr || p.seq < first->seq)) {
      first = &p;
    }
  }
  ASSERT_NE(first, nullptr);
  ASSERT_GT(first->nblocks, 0u);
  uint32_t chain_end = 0;
  for (const PartialAt& p : partials) {
    if (p.segment == first->segment) {
      chain_end = std::max(chain_end, p.offset + 1 + p.nblocks);
    }
  }
  ASSERT_LE(chain_end + 1 + first->nblocks, sb.BlocksPerSegment());

  // Append a copy of the first post-checkpoint partial to its segment's
  // chain, then tear the original by damaging its first content block.
  std::vector<std::byte> copy(static_cast<size_t>(1 + first->nblocks) * sb.block_size);
  ASSERT_TRUE(
      rig.inner.ReadSectors(sb.SegmentBlockSector(first->segment, first->offset), copy).ok());
  ASSERT_TRUE(
      rig.inner.WriteSectors(sb.SegmentBlockSector(first->segment, chain_end), copy).ok());
  std::vector<std::byte> content(sb.block_size);
  const uint64_t content_sector = sb.SegmentBlockSector(first->segment, first->offset + 1);
  ASSERT_TRUE(rig.inner.ReadSectors(content_sector, content).ok());
  content[100] ^= std::byte{0xFF};
  ASSERT_TRUE(rig.inner.WriteSectors(content_sector, content).ok());

  auto fs = rig.Reboot();
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_EQ((*fs)->rolled_forward_partials(), 0u);
  PathFs paths(fs->get());
  EXPECT_FALSE(paths.Exists("/after"));
  auto durable = paths.ReadFile("/durable");
  ASSERT_TRUE(durable.ok());
  EXPECT_EQ(*durable, TestBytes(5000, 1));
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

// The post-roll-forward usage rebuild reads inode blocks and then the
// single-indirect blocks in address order. Files past the direct pointers
// (single indirect) and past the single indirect (double indirect) are
// replayed. The rebuilt table must equal the recount in every segment, hold
// at least the files' data, and stay exact as the files are deleted (the
// deletions are charged incrementally, not recounted).
TEST(LfsRecoveryTest, RebuiltUsageCoversIndirectBlocks) {
  CrashRig rig;
  const size_t kSingleBytes = 40 * 4096;             // Past the 12 direct blocks.
  const size_t kDoubleBytes = (12 + 512 + 40) * 4096;  // Past the single indirect.
  {
    auto fs = rig.MountFaulty();
    ASSERT_TRUE(fs.ok());
    PathFs paths(fs->get());
    ASSERT_TRUE((*fs)->Sync().ok());
    for (int i = 0; i < 4; ++i) {
      const std::string name = "/single" + std::to_string(i);
      ASSERT_TRUE(paths.WriteFile(name, TestBytes(kSingleBytes, 20 + i)).ok());
      ASSERT_TRUE((*fs)->Fsync(paths.Resolve(name).value()).ok());
    }
    ASSERT_TRUE(paths.WriteFile("/double", TestBytes(kDoubleBytes, 30)).ok());
    ASSERT_TRUE((*fs)->Fsync(paths.Resolve("/double").value()).ok());
    ASSERT_TRUE((*fs)->Fsync(kRootIno).ok());
    rig.fault.CrashNow();
  }
  auto fs = rig.Reboot();
  ASSERT_TRUE(fs.ok()) << fs.status().ToString();
  EXPECT_GT((*fs)->rolled_forward_partials(), 0u);
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
  auto recount = (*fs)->ComputeExactUsage();
  ASSERT_TRUE(recount.ok());
  uint64_t rebuilt_bytes = 0;
  for (uint32_t seg = 0; seg < recount->size(); ++seg) {
    EXPECT_EQ((*fs)->usage().Get(seg).live_bytes, (*recount)[seg]) << "segment " << seg;
    rebuilt_bytes += (*fs)->usage().Get(seg).live_bytes;
  }
  EXPECT_GE(rebuilt_bytes, 4 * kSingleBytes + kDoubleBytes);
  PathFs paths(fs->get());
  for (int i = 0; i < 4; ++i) {
    const std::string name = "/single" + std::to_string(i);
    auto back = paths.ReadFile(name);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, TestBytes(kSingleBytes, 20 + i));
    ASSERT_TRUE(paths.Unlink(name).ok());
  }
  auto back = paths.ReadFile("/double");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, TestBytes(kDoubleBytes, 30));
  ASSERT_TRUE(paths.Unlink("/double").ok());
  EXPECT_TRUE(ExpectClean(fs->get()).ok());
}

}  // namespace
}  // namespace logfs
