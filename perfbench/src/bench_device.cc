#include "perfbench/src/bench_device.h"

#include <algorithm>

#include "perfbench/src/ledger.h"

namespace perfbench {

using hfad::Slice;
using hfad::Status;

BenchDevice::BenchDevice(uint64_t size_bytes, Ledger* ledger)
    : base_(size_bytes), ledger_(ledger), written_((size_bytes + kBlock - 1) / kBlock) {}

Status BenchDevice::Read(uint64_t offset, size_t size, std::string* out) const {
  Span span(ledger_, "device.read");
  reads_.fetch_add(1, std::memory_order_relaxed);
  read_bytes_.fetch_add(size, std::memory_order_relaxed);
  return base_.Read(offset, size, out);
}

void BenchDevice::NoteWrite(uint64_t offset, uint64_t size) {
  if (size == 0) {
    return;
  }
  const uint64_t last = std::min(offset + size, base_.Size()) - 1;
  for (uint64_t block = offset / kBlock; block <= last / kBlock; block++) {
    written_[block] = true;
    auto [it, inserted] = pre_images_.try_emplace(block);
    if (inserted) {
      const uint64_t start = block * kBlock;
      Status s = base_.Read(start, std::min(kBlock, base_.Size() - start), &it->second);
      if (!s.ok()) {
        pre_images_.erase(it);
      }
    }
  }
}

Status BenchDevice::Write(uint64_t offset, Slice data) {
  Span span(ledger_, "device.write");
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::IoError("device crashed");
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  NoteWrite(offset, data.size());
  return base_.Write(offset, data);
}

Status BenchDevice::WriteBatch(std::vector<hfad::WriteExtent> extents) {
  Span span(ledger_, "device.write");
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::IoError("device crashed");
  }
  for (const hfad::WriteExtent& e : extents) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    write_bytes_.fetch_add(e.data.size(), std::memory_order_relaxed);
    NoteWrite(e.offset, e.data.size());
  }
  return base_.WriteBatch(std::move(extents));
}

Status BenchDevice::Sync() {
  Span span(ledger_, "device.sync");
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::IoError("device crashed");
  }
  syncs_.fetch_add(1, std::memory_order_relaxed);
  pre_images_.clear();
  return base_.Sync();
}

void BenchDevice::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
  for (const auto& [block, bytes] : pre_images_) {
    (void)base_.Write(block * kBlock, bytes);
  }
  pre_images_.clear();
}

void BenchDevice::Revive() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = false;
}

void BenchDevice::Erase() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string zeros(kBlock, '\0');
  for (uint64_t block = 0; block < written_.size(); block++) {
    if (written_[block]) {
      const uint64_t start = block * kBlock;
      (void)base_.Write(start, Slice(zeros.data(), std::min(kBlock, base_.Size() - start)));
      written_[block] = false;
    }
  }
  pre_images_.clear();
  crashed_ = false;
}

BenchDevice::Counts BenchDevice::counts() const {
  Counts c;
  c.reads = reads_.load(std::memory_order_relaxed);
  c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  c.writes = writes_.load(std::memory_order_relaxed);
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.syncs = syncs_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace perfbench
