#include "storage/fault_disk.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"
#include "common/random.h"
#include "common/strings.h"
#include "storage/checksum.h"

namespace wsq {

namespace {

Status PowerLossError() {
  return Status::IOError("simulated power loss: device offline");
}

}  // namespace

// --- FaultController -----------------------------------------------------

FaultController::FaultController(DiskFaultPlan plan) : plan_(plan) {}

FaultController::Action FaultController::BeginMutation() {
  MutexLock lock(&mu_);
  if (crashed_) {
    ++stats_.failed_ops;
    return Action::kFail;
  }
  uint64_t op = ++stats_.ops;
  if (plan_.crash_at_op != 0 && op == plan_.crash_at_op) {
    crashed_ = true;
    ++crash_epoch_;
    stats_.crashed = true;
    ++stats_.failed_ops;
    return Action::kCrash;
  }
  if (plan_.fail_at_op != 0 && op == plan_.fail_at_op) {
    ++stats_.failed_ops;
    return Action::kFail;
  }
  return Action::kOk;
}

bool FaultController::crashed() const {
  MutexLock lock(&mu_);
  return crashed_;
}

void FaultController::Recover() {
  MutexLock lock(&mu_);
  crashed_ = false;
}

uint64_t FaultController::crash_epoch() const {
  MutexLock lock(&mu_);
  return crash_epoch_;
}

void FaultController::set_plan(DiskFaultPlan plan) {
  MutexLock lock(&mu_);
  plan_ = plan;
}

DiskFaultPlan FaultController::plan() const {
  MutexLock lock(&mu_);
  return plan_;
}

DiskFaultStats FaultController::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

bool FaultController::ShouldFlipBit(PageId page_id, size_t* bit) {
  MutexLock lock(&mu_);
  ++stats_.reads;
  if (plan_.read_bit_flip_rate <= 0.0) return false;
  // Stable across runs: the decision reproduces from (seed, page id).
  uint64_t key = (plan_.seed ^ 0xb17f11b5ull) ^
                 (static_cast<uint64_t>(page_id) * kSplitMixGamma);
  uint64_t h = Mix64(key + kSplitMixGamma);
  if (UnitDouble(h) >= plan_.read_bit_flip_rate) return false;
  ++stats_.bit_flips;
  *bit = static_cast<size_t>(h >> 17) % (kPageSize * 8);
  return true;
}

int64_t FaultController::torn_bytes() const {
  MutexLock lock(&mu_);
  return plan_.torn_bytes;
}

// --- FaultInjectingDiskManager -------------------------------------------

FaultInjectingDiskManager::FaultInjectingDiskManager(DiskManager* durable,
                                                     FaultController* ctl)
    : durable_(durable), ctl_(ctl), num_pages_(durable->NumPages()) {}

/// Epoch watch: drops volatile state once per crash.
void FaultInjectingDiskManager::DropOnNewEpochLocked() {
  uint64_t epoch = ctl_->crash_epoch();
  if (epoch != seen_crash_epoch_) {
    overlay_.clear();
    num_pages_ = durable_->NumPages();
    seen_crash_epoch_ = epoch;
  }
}

Status FaultInjectingDiskManager::ReadPage(PageId page_id, char* out) {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  if (ctl_->crashed()) return PowerLossError();
  if (page_id < 0 || page_id >= num_pages_) {
    return Status::OutOfRange(
        StrFormat("read of unallocated page %d", page_id));
  }
  auto it = overlay_.find(page_id);
  if (it != overlay_.end()) {
    std::memcpy(out, it->second.data(), kPageSize);
  } else {
    WSQ_RETURN_IF_ERROR(durable_->ReadPage(page_id, out));
  }
  size_t bit;
  if (ctl_->ShouldFlipBit(page_id, &bit)) {
    out[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
  return VerifyPageHeader(page_id, out);
}

Status FaultInjectingDiskManager::WritePage(PageId page_id,
                                            const char* data) {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  if (ctl_->crashed()) return PowerLossError();
  if (page_id < 0 || page_id >= num_pages_) {
    return Status::OutOfRange(
        StrFormat("write of unallocated page %d", page_id));
  }
  char frame[kPageSize];
  std::memcpy(frame, data, kPageSize);
  StampPageHeader(page_id, next_lsn_++, frame);
  switch (ctl_->BeginMutation()) {
    case FaultController::Action::kFail:
      return Status::IOError(
          StrFormat("injected failure writing page %d", page_id));
    case FaultController::Action::kCrash:
      return CrashNow(page_id, frame);
    case FaultController::Action::kOk:
      break;
  }
  overlay_[page_id].assign(frame, kPageSize);
  return Status::OK();
}

Result<PageId> FaultInjectingDiskManager::AllocatePage() {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  if (ctl_->crashed()) return PowerLossError();
  char frame[kPageSize];
  std::memset(frame, 0, kPageSize);
  StampPageHeader(num_pages_, next_lsn_++, frame);
  switch (ctl_->BeginMutation()) {
    case FaultController::Action::kFail:
      return Status::IOError("injected failure extending the file");
    case FaultController::Action::kCrash:
      return CrashNow(kInvalidPageId, nullptr);
    case FaultController::Action::kOk:
      break;
  }
  overlay_[num_pages_].assign(frame, kPageSize);
  return num_pages_++;
}

PageId FaultInjectingDiskManager::NumPages() const {
  MutexLock lock(&mu_);
  // A crash may not have been observed by a mutating call yet; report
  // the durable truth in that case.
  if (ctl_->crash_epoch() != seen_crash_epoch_) {
    return durable_->NumPages();
  }
  return num_pages_;
}

Status FaultInjectingDiskManager::Sync() {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  if (ctl_->crashed()) return PowerLossError();
  switch (ctl_->BeginMutation()) {
    case FaultController::Action::kFail:
      return Status::IOError("injected sync failure");
    case FaultController::Action::kCrash:
      return CrashNow(kInvalidPageId, nullptr);
    case FaultController::Action::kOk:
      break;
  }
  for (const auto& [page_id, frame] : overlay_) {
    while (durable_->NumPages() <= page_id) {
      WSQ_RETURN_IF_ERROR(durable_->AllocatePage().status());
    }
    WSQ_RETURN_IF_ERROR(durable_->WritePage(page_id, frame.data()));
  }
  WSQ_RETURN_IF_ERROR(durable_->Sync());
  overlay_.clear();
  return Status::OK();
}

size_t FaultInjectingDiskManager::unsynced_pages() const {
  MutexLock lock(&mu_);
  return overlay_.size();
}

Status FaultInjectingDiskManager::CrashNow(PageId torn_page,
                                           const char* torn_frame) {
  // Power loss: un-synced writes vanish, except that the crashing
  // write may leave a torn prefix on a page that already exists
  // durably (mirroring a partial sector write).
  int64_t keep = ctl_->torn_bytes();
  if (keep > 0 && torn_frame != nullptr && torn_page >= 0 &&
      torn_page < durable_->NumPages()) {
    char merged[kPageSize];
    if (durable_->ReadPage(torn_page, merged).ok()) {
      size_t n = std::min<size_t>(static_cast<size_t>(keep), kPageSize);
      std::memcpy(merged, torn_frame, n);
      WSQ_IGNORE_STATUS(durable_->WritePage(torn_page, merged));
    }
  }
  overlay_.clear();
  num_pages_ = durable_->NumPages();
  seen_crash_epoch_ = ctl_->crash_epoch();
  return PowerLossError();
}

// --- FaultInjectingWalStorage --------------------------------------------

FaultInjectingWalStorage::FaultInjectingWalStorage(WalStorage* durable,
                                                   FaultController* ctl)
    : durable_(durable), ctl_(ctl) {}

/// Epoch watch: drops the volatile tail once per crash.
void FaultInjectingWalStorage::DropOnNewEpochLocked() {
  uint64_t epoch = ctl_->crash_epoch();
  if (epoch != seen_crash_epoch_) {
    volatile_.clear();
    seen_crash_epoch_ = epoch;
  }
}

Result<bool> FaultInjectingWalStorage::Exists() {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  WSQ_ASSIGN_OR_RETURN(bool durable_exists, durable_->Exists());
  return durable_exists || !volatile_.empty();
}

Result<std::string> FaultInjectingWalStorage::ReadAll() {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  WSQ_ASSIGN_OR_RETURN(std::string bytes, durable_->ReadAll());
  bytes += volatile_;
  return bytes;
}

Status FaultInjectingWalStorage::Append(std::string_view bytes) {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  if (ctl_->crashed()) return PowerLossError();
  switch (ctl_->BeginMutation()) {
    case FaultController::Action::kFail:
      return Status::IOError("injected failure appending to the log");
    case FaultController::Action::kCrash: {
      // Torn append: a prefix of this record may still reach the
      // durable log; everything un-synced before it is gone.
      int64_t keep = ctl_->torn_bytes();
      if (keep > 0) {
        size_t n = std::min<size_t>(static_cast<size_t>(keep),
                                    bytes.size());
        WSQ_IGNORE_STATUS(durable_->Append(bytes.substr(0, n)));
        WSQ_IGNORE_STATUS(durable_->Sync());
      }
      volatile_.clear();
      seen_crash_epoch_ = ctl_->crash_epoch();
      return PowerLossError();
    }
    case FaultController::Action::kOk:
      break;
  }
  volatile_.append(bytes);
  return Status::OK();
}

Status FaultInjectingWalStorage::Sync() {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  if (ctl_->crashed()) return PowerLossError();
  switch (ctl_->BeginMutation()) {
    case FaultController::Action::kFail:
      return Status::IOError("injected log sync failure");
    case FaultController::Action::kCrash:
      volatile_.clear();
      seen_crash_epoch_ = ctl_->crash_epoch();
      return PowerLossError();
    case FaultController::Action::kOk:
      break;
  }
  if (!volatile_.empty()) {
    WSQ_RETURN_IF_ERROR(durable_->Append(volatile_));
    volatile_.clear();
  }
  return durable_->Sync();
}

Status FaultInjectingWalStorage::Reset() {
  MutexLock lock(&mu_);
  DropOnNewEpochLocked();
  if (ctl_->crashed()) return PowerLossError();
  switch (ctl_->BeginMutation()) {
    case FaultController::Action::kFail:
      return Status::IOError("injected log reset failure");
    case FaultController::Action::kCrash:
      volatile_.clear();
      seen_crash_epoch_ = ctl_->crash_epoch();
      return PowerLossError();
    case FaultController::Action::kOk:
      break;
  }
  volatile_.clear();
  return durable_->Reset();
}

size_t FaultInjectingWalStorage::unsynced_bytes() const {
  MutexLock lock(&mu_);
  return volatile_.size();
}

}  // namespace wsq
