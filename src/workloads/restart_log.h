// Restart log: write-ahead durability for checkpoint generations.
//
// A checkpointed run appends one fixed-size, CRC-guarded record to the
// restart log for every generation whose image has been fully written to
// the store -- the write-ahead rule is image first, log record second, so a
// crash at ANY boundary leaves the log describing only complete images.
// Recovery scans the log newest-first, loads each candidate generation's
// delta chain (walking base_generation links down to a full image,
// validating every parent digest), and falls back to the next older logged
// generation on any chain error -- a truncated chain, a generation gap, a
// corrupted image. The newest *complete* generation always wins; a partial
// image left by the crash is unreachable because its record was never
// appended (restart-log invariant, DESIGN.md).
//
// The store is pluggable: MemCkptStore for tests (and for corrupting any
// byte of any generation), FileCkptStore for fluke_run's --ckpt-dir.

#ifndef SRC_WORKLOADS_RESTART_LOG_H_
#define SRC_WORKLOADS_RESTART_LOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/workloads/checkpoint.h"

namespace fluke {

// Minimal blob store: images keyed by name, plus one append-only log blob.
class CkptStore {
 public:
  virtual ~CkptStore() = default;
  // Writes (replacing) the blob `name`. Returns false on I/O failure.
  virtual bool Put(const std::string& name, const std::vector<uint8_t>& bytes) = 0;
  // Reads blob `name`; false if absent or unreadable.
  virtual bool Get(const std::string& name, std::vector<uint8_t>* out) const = 0;
  // Appends to blob `name` (the restart log), creating it if absent.
  virtual bool Append(const std::string& name, const std::vector<uint8_t>& bytes) = 0;
};

class MemCkptStore final : public CkptStore {
 public:
  bool Put(const std::string& name, const std::vector<uint8_t>& bytes) override {
    blobs_[name] = bytes;
    return true;
  }
  bool Get(const std::string& name, std::vector<uint8_t>* out) const override {
    auto it = blobs_.find(name);
    if (it == blobs_.end()) {
      return false;
    }
    *out = it->second;
    return true;
  }
  bool Append(const std::string& name, const std::vector<uint8_t>& bytes) override {
    auto& b = blobs_[name];
    b.insert(b.end(), bytes.begin(), bytes.end());
    return true;
  }
  // Test access: mutate stored bytes in place (corruption injection) and
  // drop blobs (truncated-chain injection).
  std::map<std::string, std::vector<uint8_t>>& blobs() { return blobs_; }

 private:
  std::map<std::string, std::vector<uint8_t>> blobs_;
};

// Files under a directory; Append is an O_APPEND-style read-modify-write.
class FileCkptStore final : public CkptStore {
 public:
  explicit FileCkptStore(std::string dir) : dir_(std::move(dir)) {}
  bool Put(const std::string& name, const std::vector<uint8_t>& bytes) override;
  bool Get(const std::string& name, std::vector<uint8_t>* out) const override;
  bool Append(const std::string& name, const std::vector<uint8_t>& bytes) override;

 private:
  std::string dir_;
};

inline constexpr char kRestartLogName[] = "restart.log";

// One log record: generation, image digest, image size, CRC32 over the
// first 24 bytes. 28 bytes fixed, little-endian. A torn tail (partial
// record) or a record with a bad CRC ends the scan -- everything before it
// is trusted, everything after ignored.
struct RestartRecord {
  uint64_t generation = 0;
  uint64_t digest = 0;
  uint64_t image_size = 0;
};
inline constexpr size_t kRestartRecordBytes = 28;

std::string CkptImageName(uint64_t generation);

// Writes `bytes` as generation `gen`'s image and then appends the log
// record (write-ahead order). Returns false on store failure. On success,
// `*digest` (when given) receives the ImageDigest the record logged, so a
// caller chaining the next delta need not hash the image again.
bool CommitGeneration(CkptStore& store, uint64_t gen, const std::vector<uint8_t>& bytes,
                      uint64_t* digest = nullptr);

// Parses the log into records, stopping cleanly at a torn or corrupt tail.
std::vector<RestartRecord> ReadRestartLog(const CkptStore& store);

// Loads generation `gen`: fetches its image, verifies size + digest against
// `rec`, walks base_generation parent links (each parent must be logged
// with a matching digest), and merges the chain into one full image.
// Structured errors: "truncated delta chain" (a parent image is missing),
// "generation gap" (a delta's base is not the next older logged
// generation), "parent digest mismatch", plus anything DeserializeImage or
// MergeImageChain reports.
bool LoadGeneration(const CkptStore& store, const std::vector<RestartRecord>& log,
                    size_t rec_index, MachineImage* out, std::string* error);

// Recovery: newest logged generation that loads cleanly. Returns false only
// if no logged generation is recoverable; `error` then holds the newest
// generation's failure.
bool RecoverLatest(const CkptStore& store, MachineImage* out, uint64_t* generation,
                   std::string* error);

}  // namespace fluke

#endif  // SRC_WORKLOADS_RESTART_LOG_H_
