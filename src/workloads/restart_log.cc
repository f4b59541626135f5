#include "src/workloads/restart_log.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/base/crc32.h"
#include "src/workloads/ckpt_image.h"

namespace fluke {

namespace {

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

bool FileCkptStore::Put(const std::string& name, const std::vector<uint8_t>& bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::ofstream f(std::filesystem::path(dir_) / name, std::ios::binary | std::ios::trunc);
  if (!f) {
    return false;
  }
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return f.good();
}

bool FileCkptStore::Get(const std::string& name, std::vector<uint8_t>* out) const {
  // One sized read into a pre-sized buffer: images run to megabytes.
  std::ifstream f(std::filesystem::path(dir_) / name, std::ios::binary | std::ios::ate);
  if (!f) {
    return false;
  }
  const std::streamsize size = f.tellg();
  if (size < 0 || !f.seekg(0)) {
    return false;
  }
  out->resize(static_cast<size_t>(size));
  f.read(reinterpret_cast<char*>(out->data()), size);
  return f.gcount() == size;
}

bool FileCkptStore::Append(const std::string& name, const std::vector<uint8_t>& bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  std::ofstream f(std::filesystem::path(dir_) / name, std::ios::binary | std::ios::app);
  if (!f) {
    return false;
  }
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return f.good();
}

std::string CkptImageName(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%llu.img", static_cast<unsigned long long>(generation));
  return buf;
}

bool CommitGeneration(CkptStore& store, uint64_t gen, const std::vector<uint8_t>& bytes,
                      uint64_t* digest) {
  // Write-ahead order: the image must be durable before the log names it.
  if (!store.Put(CkptImageName(gen), bytes)) {
    return false;
  }
  const uint64_t d = ImageDigest(bytes);
  std::vector<uint8_t> rec;
  rec.reserve(kRestartRecordBytes);
  PutU64(&rec, gen);
  PutU64(&rec, d);
  PutU64(&rec, bytes.size());
  const uint32_t crc = Crc32(rec.data(), rec.size());
  for (int i = 0; i < 4; ++i) {
    rec.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  if (!store.Append(kRestartLogName, rec)) {
    return false;
  }
  if (digest != nullptr) {
    *digest = d;
  }
  return true;
}

std::vector<RestartRecord> ReadRestartLog(const CkptStore& store) {
  std::vector<RestartRecord> out;
  std::vector<uint8_t> raw;
  if (!store.Get(kRestartLogName, &raw)) {
    return out;
  }
  for (size_t off = 0; off + kRestartRecordBytes <= raw.size(); off += kRestartRecordBytes) {
    const uint8_t* p = raw.data() + off;
    if (Crc32(p, 24) != GetU32(p + 24)) {
      break;  // corrupt record: trust nothing at or after it
    }
    out.push_back({GetU64(p), GetU64(p + 8), GetU64(p + 16)});
  }
  return out;  // a torn tail (partial record) is simply never reached
}

namespace {

// LoadGeneration with a caller-owned image buffer, so recovery's fallback
// walk reuses one buffer for every image it reads.
bool LoadGenerationInto(const CkptStore& store, const std::vector<RestartRecord>& log,
                        size_t rec_index, MachineImage* out, std::string* error,
                        std::vector<uint8_t>* bytes) {
  if (rec_index >= log.size()) {
    *error = "no such log record";
    return false;
  }
  // Newest record for each generation (a re-run could re-log one).
  auto find_record = [&log](uint64_t gen, RestartRecord* rec) {
    bool found = false;
    for (const RestartRecord& r : log) {
      if (r.generation == gen) {
        *rec = r;
        found = true;
      }
    }
    return found;
  };
  auto fetch = [&](const RestartRecord& rec, MachineImage* img) -> bool {
    if (!store.Get(CkptImageName(rec.generation), bytes)) {
      *error = "truncated delta chain: image for generation " +
               std::to_string(rec.generation) + " is missing";
      return false;
    }
    if (bytes->size() != rec.image_size || ImageDigest(*bytes) != rec.digest) {
      *error = "image digest mismatch for generation " + std::to_string(rec.generation);
      return false;
    }
    if (!DeserializeImage(*bytes, img, error)) {
      return false;
    }
    if (img->generation != rec.generation) {
      *error = "image generation disagrees with the log";
      return false;
    }
    return true;
  };

  // Walk parent links newest-to-oldest, then merge oldest-first.
  std::vector<MachineImage> images;
  MachineImage img;
  if (!fetch(log[rec_index], &img)) {
    return false;
  }
  // fetch() has checked each image against its record's digest, so the
  // record's digest is the image's: no image is hashed twice.
  uint64_t digest = log[rec_index].digest;
  uint64_t expect_parent_digest = 0;
  while (true) {
    const bool is_delta = img.base_generation != 0;
    const uint32_t parent_gen = img.base_generation;
    const uint64_t parent_digest = img.parent_digest;
    if (!images.empty() && expect_parent_digest != digest) {
      *error = "parent digest mismatch at generation " + std::to_string(img.generation);
      return false;
    }
    images.push_back(std::move(img));
    if (!is_delta) {
      break;
    }
    if (images.size() > log.size()) {
      *error = "delta chain longer than the log (cycle?)";
      return false;
    }
    RestartRecord prec;
    if (!find_record(parent_gen, &prec)) {
      *error = "generation gap: delta generation " +
               std::to_string(images.back().generation) + " chains to unlogged generation " +
               std::to_string(parent_gen);
      return false;
    }
    expect_parent_digest = parent_digest;
    if (!fetch(prec, &img)) {
      return false;
    }
    digest = prec.digest;
  }

  std::vector<const MachineImage*> chain;
  for (auto it = images.rbegin(); it != images.rend(); ++it) {
    chain.push_back(&*it);
  }
  return MergeImageChain(chain, out, error);
}

}  // namespace

bool LoadGeneration(const CkptStore& store, const std::vector<RestartRecord>& log,
                    size_t rec_index, MachineImage* out, std::string* error) {
  std::vector<uint8_t> bytes;
  return LoadGenerationInto(store, log, rec_index, out, error, &bytes);
}

bool RecoverLatest(const CkptStore& store, MachineImage* out, uint64_t* generation,
                   std::string* error) {
  const std::vector<RestartRecord> log = ReadRestartLog(store);
  if (log.empty()) {
    *error = "restart log is empty or unreadable";
    return false;
  }
  std::string newest_error;
  std::vector<uint8_t> bytes;
  for (size_t i = log.size(); i-- > 0;) {
    std::string e;
    if (LoadGenerationInto(store, log, i, out, &e, &bytes)) {
      if (generation != nullptr) {
        *generation = log[i].generation;
      }
      return true;
    }
    if (newest_error.empty()) {
      newest_error = std::move(e);
    }
  }
  *error = newest_error;
  return false;
}

}  // namespace fluke
