#include "util/serialize.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/fault_injection.h"

namespace kvec {
namespace {

// Tags guard against reading a value as the wrong kind.
constexpr int32_t kTagInt32 = 0x4b561001;
constexpr int32_t kTagInt64 = 0x4b561002;
constexpr int32_t kTagFloat = 0x4b561003;
constexpr int32_t kTagString = 0x4b561004;
constexpr int32_t kTagFloatVec = 0x4b561005;
constexpr int32_t kTagIntVec = 0x4b561006;
constexpr int32_t kTagDouble = 0x4b561007;

}  // namespace

void BinaryWriter::Append(const void* data, size_t size) {
  if (size == 0) return;  // empty containers hand over a null data()
  buffer_.append(static_cast<const char*>(data), size);
}

void BinaryWriter::WriteInt32(int32_t value) {
  Append(&kTagInt32, sizeof(kTagInt32));
  Append(&value, sizeof(value));
}

void BinaryWriter::WriteInt64(int64_t value) {
  Append(&kTagInt64, sizeof(kTagInt64));
  Append(&value, sizeof(value));
}

void BinaryWriter::WriteFloat(float value) {
  Append(&kTagFloat, sizeof(kTagFloat));
  Append(&value, sizeof(value));
}

void BinaryWriter::WriteDouble(double value) {
  Append(&kTagDouble, sizeof(kTagDouble));
  Append(&value, sizeof(value));
}

void BinaryWriter::WriteString(const std::string& value) {
  Append(&kTagString, sizeof(kTagString));
  int64_t size = static_cast<int64_t>(value.size());
  Append(&size, sizeof(size));
  Append(value.data(), value.size());
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& values) {
  WriteFloats(values.data(), values.size());
}

void BinaryWriter::WriteFloats(const float* values, size_t count) {
  Append(&kTagFloatVec, sizeof(kTagFloatVec));
  int64_t size = static_cast<int64_t>(count);
  Append(&size, sizeof(size));
  Append(values, count * sizeof(float));
}

void BinaryWriter::WriteIntVector(const std::vector<int>& values) {
  WriteInts(values.data(), values.size());
}
void BinaryWriter::WriteInts(const int* values, size_t count) {
  Append(&kTagIntVec, sizeof(kTagIntVec));
  int64_t size = static_cast<int64_t>(count);
  Append(&size, sizeof(size));
  Append(values, count * sizeof(int));
}

bool BinaryWriter::SaveToFile(const std::string& path) const {
  return AtomicWriteFile(path, buffer_);
}

BinaryReader::BinaryReader(std::string buffer) : buffer_(std::move(buffer)) {}

bool BinaryReader::Consume(void* data, size_t size) {
  if (!ok_) return false;
  if (size > buffer_.size() - position_) {
    Fail();
    return false;
  }
  if (size == 0) return true;  // empty containers hand over a null data()
  std::memcpy(data, buffer_.data() + position_, size);
  position_ += size;
  return true;
}

bool BinaryReader::ConsumeTag(int32_t expected) {
  int32_t tag = 0;
  if (!Consume(&tag, sizeof(tag))) return false;
  if (tag != expected) {
    Fail();
    return false;
  }
  return true;
}

bool BinaryReader::ConsumeSize(size_t elem_size, int64_t* size) {
  if (!Consume(size, sizeof(*size))) return false;
  if (*size < 0 ||
      static_cast<uint64_t>(*size) > remaining() / elem_size) {
    // A corrupted prefix must fail before it drives an allocation.
    Fail();
    return false;
  }
  return true;
}

int32_t BinaryReader::ReadInt32() {
  if (!ConsumeTag(kTagInt32)) return 0;
  int32_t value = 0;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0;
}

int64_t BinaryReader::ReadInt64() {
  if (!ConsumeTag(kTagInt64)) return 0;
  int64_t value = 0;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0;
}

float BinaryReader::ReadFloat() {
  if (!ConsumeTag(kTagFloat)) return 0.0f;
  float value = 0.0f;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0.0f;
}

double BinaryReader::ReadDouble() {
  if (!ConsumeTag(kTagDouble)) return 0.0;
  double value = 0.0;
  Consume(&value, sizeof(value));
  return ok_ ? value : 0.0;
}

std::string BinaryReader::ReadString() {
  if (!ConsumeTag(kTagString)) return std::string();
  int64_t size = 0;
  if (!ConsumeSize(1, &size)) return std::string();
  std::string value(static_cast<size_t>(size), '\0');
  if (!Consume(value.data(), value.size())) return std::string();
  return value;
}

std::vector<float> BinaryReader::ReadFloatVector() {
  if (!ConsumeTag(kTagFloatVec)) return {};
  int64_t size = 0;
  if (!ConsumeSize(sizeof(float), &size)) return {};
  std::vector<float> values(static_cast<size_t>(size));
  if (!Consume(values.data(), values.size() * sizeof(float))) return {};
  return values;
}

std::vector<int> BinaryReader::ReadIntVector() {
  if (!ConsumeTag(kTagIntVec)) return {};
  int64_t size = 0;
  if (!ConsumeSize(sizeof(int), &size)) return {};
  std::vector<int> values(static_cast<size_t>(size));
  if (!Consume(values.data(), values.size() * sizeof(int))) return {};
  return values;
}

// ---- Checkpoint container ------------------------------------------------

namespace {

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

// Raw little-endian frame parser with explicit bounds checks (the frame
// deliberately avoids the tagged value layer so its layout is fixed and
// documented in serialize.h).
class FrameReader {
 public:
  explicit FrameReader(const std::string& bytes) : bytes_(bytes) {}

  bool Read(void* data, size_t size) {
    if (size > bytes_.size() - position_) return false;
    std::memcpy(data, bytes_.data() + position_, size);
    position_ += size;
    return true;
  }

  bool ReadPayload(int64_t size, std::string* out) {
    if (size < 0 ||
        static_cast<uint64_t>(size) > bytes_.size() - position_) {
      return false;
    }
    out->assign(bytes_.data() + position_, static_cast<size_t>(size));
    position_ += static_cast<size_t>(size);
    return true;
  }

  size_t remaining() const { return bytes_.size() - position_; }

 private:
  const std::string& bytes_;
  size_t position_ = 0;
};

}  // namespace

const CheckpointSection* Checkpoint::Find(int32_t id) const {
  for (const CheckpointSection& section : sections) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

std::string CheckpointEncode(const Checkpoint& checkpoint) {
  std::string out;
  AppendRaw(&out, &kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendRaw(&out, &checkpoint.version, sizeof(checkpoint.version));
  const int32_t count = static_cast<int32_t>(checkpoint.sections.size());
  AppendRaw(&out, &count, sizeof(count));
  for (const CheckpointSection& section : checkpoint.sections) {
    AppendRaw(&out, &section.id, sizeof(section.id));
    const int64_t length = static_cast<int64_t>(section.payload.size());
    AppendRaw(&out, &length, sizeof(length));
    out.append(section.payload);
  }
  return out;
}

bool CheckpointDecode(const std::string& bytes, Checkpoint* out) {
  FrameReader frame(bytes);
  uint32_t magic = 0;
  if (!frame.Read(&magic, sizeof(magic)) || magic != kCheckpointMagic) {
    return false;
  }
  int32_t version = 0;
  if (!frame.Read(&version, sizeof(version))) return false;
  // Future versions are unreadable by design: the writer bumps the version
  // exactly when an existing payload layout changes.
  if (version < 1 || version > kCheckpointMaxFormatVersion) return false;
  int32_t count = 0;
  if (!frame.Read(&count, sizeof(count))) return false;
  // Each section costs at least its 12-byte header: a corrupted count
  // cannot demand more sections than the remaining bytes could hold.
  constexpr size_t kSectionHeaderBytes =
      sizeof(int32_t) + sizeof(int64_t);
  if (count < 0 ||
      static_cast<uint64_t>(count) > frame.remaining() / kSectionHeaderBytes) {
    return false;
  }
  Checkpoint checkpoint;
  checkpoint.version = version;
  checkpoint.sections.reserve(static_cast<size_t>(count));
  for (int32_t i = 0; i < count; ++i) {
    CheckpointSection section;
    int64_t length = 0;
    if (!frame.Read(&section.id, sizeof(section.id)) ||
        !frame.Read(&length, sizeof(length)) ||
        !frame.ReadPayload(length, &section.payload)) {
      return false;
    }
    checkpoint.sections.push_back(std::move(section));
  }
  if (frame.remaining() != 0) return false;  // trailing garbage
  *out = std::move(checkpoint);
  return true;
}

bool CheckpointSave(const std::string& path, const Checkpoint& checkpoint) {
  // Tests force the disk-full / yanked-volume shape here; callers must
  // treat a false as "no checkpoint exists at `path`".
  if (KVEC_FAULT_POINT("checkpoint.save")) return false;
  return AtomicWriteFile(path, CheckpointEncode(checkpoint));
}

bool CheckpointLoad(const std::string& path, Checkpoint* out) {
  std::string bytes;
  return ReadFile(path, &bytes) && CheckpointDecode(bytes, out);
}

uint64_t CheckpointFingerprint(const std::string& bytes) {
  // FNV-1a 64. Stable across platforms (byte-wise, no alignment games).
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

// Writes all of `bytes` to `fd`, retrying short writes and EINTR. A short
// write that makes no progress (RLIMIT_FSIZE, a full disk) fails.
bool WriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

// fsyncs the directory holding `path`, which is what makes a rename into
// it survive power loss.
bool SyncParentDirectory(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0                ? "/"
                                                      : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool synced = ::fsync(fd) == 0;
  return ::close(fd) == 0 && synced;
}

}  // namespace

bool AtomicWriteFile(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  // Every byte written, flushed to the device, and the descriptor closed
  // cleanly — or the temporary is removed and the old file stays as it was.
  bool ok = WriteAll(fd, bytes) && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return SyncParentDirectory(path);
}

bool ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat info {};
  bool ok = ::fstat(fd, &info) == 0;
  // One spare byte past the reported size: a regular file is read in one
  // call, and the next returning 0 confirms the end. A file that reports no
  // size (or grew meanwhile) still reads to its end, doubling as it goes.
  std::string bytes(ok ? static_cast<size_t>(info.st_size) + 1 : 0, '\0');
  size_t done = 0;
  while (ok) {
    if (done == bytes.size()) bytes.resize(2 * bytes.size());
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = n == 0;
      break;
    }
    done += static_cast<size_t>(n);
  }
  ok = ::close(fd) == 0 && ok;
  if (!ok) return false;
  bytes.resize(done);
  *out = std::move(bytes);
  return true;
}

}  // namespace kvec
