// The benchmark's BlockDevice: a RAM device that counts every read, write and sync,
// times them only while tracing is on, and can crash.
//
// Crash model (the storage durability rule): bytes written since the last Sync() are
// volatile. The device keeps a pre-image of every 4 KiB block the first time it is
// written after a Sync(); Crash() puts those pre-images back, so a volume opened after
// the crash sees only bytes that were flushed. From Crash() until Revive() every write
// and sync fails, so the crashed FileSystem's own close cannot write anything.
//
// Erase() makes a used device read as new by zeroing every block ever written, which
// costs far less than zeroing a fresh 1 GiB.
#ifndef PERFBENCH_SRC_BENCH_DEVICE_H_
#define PERFBENCH_SRC_BENCH_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/block_device.h"

namespace perfbench {

class Ledger;

class BenchDevice : public hfad::BlockDevice {
 public:
  // `ledger` receives device spans while it is recording; it must outlive the device.
  BenchDevice(uint64_t size_bytes, Ledger* ledger);

  hfad::Status Read(uint64_t offset, size_t size, std::string* out) const override;
  hfad::Status Write(uint64_t offset, hfad::Slice data) override;
  hfad::Status WriteBatch(std::vector<hfad::WriteExtent> extents) override;
  hfad::Status Sync() override;
  uint64_t Size() const override { return base_.Size(); }

  // Discard every byte written since the last Sync() and refuse writes until Revive().
  void Crash();
  void Revive();
  // Zero every block written so far and clear the crash state: the device reads as new.
  void Erase();

  struct Counts {
    uint64_t reads = 0;
    uint64_t read_bytes = 0;
    uint64_t writes = 0;  // One per Write() and one per WriteBatch() extent.
    uint64_t write_bytes = 0;
    uint64_t syncs = 0;
  };
  Counts counts() const;

 private:
  static constexpr uint64_t kBlock = 4096;

  // Mark [offset, offset+size) written and record its pre-images. Caller holds mu_.
  void NoteWrite(uint64_t offset, uint64_t size);

  hfad::MemoryBlockDevice base_;
  Ledger* const ledger_;

  std::mutex mu_;  // Orders writes against Crash(); guards the members below.
  std::unordered_map<uint64_t, std::string> pre_images_;
  std::vector<bool> written_;  // By block: written since construction or Erase().
  bool crashed_ = false;

  mutable std::atomic<uint64_t> reads_{0};
  mutable std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_DEVICE_H_
