// Minimal binary serialisation for model and serving-state checkpoints.
//
// Format: little-endian, length-prefixed. Writers/readers are symmetric and
// every value carries a magic tag per kind, so truncated or mismatched
// bytes fail loudly instead of producing garbage parameters.
//
// BinaryReader fails CLOSED: any read past the end of the buffer, any tag
// mismatch, and any implausible length prefix (negative, or larger than the
// bytes actually remaining) flips ok() to false and returns a zero/empty
// value. Once failed, every later read also fails and the buffer position
// stops advancing — callers can run a whole restore sequence and check
// ok() once at the end, and corrupted input can never trigger an abort, an
// oversized allocation, or an out-of-bounds copy. (Earlier revisions
// aborted via KVEC_CHECK and trusted length prefixes, which made every
// caller responsible for pre-validating untrusted bytes.)
//
// On top of the value layer sits the checkpoint container used for serving
// state (StreamServer / ShardedStreamServer): a magic number, a format
// version, and length-prefixed sections keyed by an integer id. Readers
// skip sections whose id they do not recognise, so a version bump is only
// needed when an existing section's payload layout changes.
//
// Two container versions exist today:
//   * version 1 — full checkpoints (the complete serving state; the layout
//     pinned byte-for-byte by tests/data/stream_server_v1.ckpt).
//   * version 2 — delta checkpoints (docs/SERVING.md "Incremental
//     checkpoints"): a chain manifest carrying the base checkpoint's
//     fingerprint plus one dirty-key delta section per shard. Deltas never
//     stand alone; they are applied on top of a restored version-1 base in
//     chain order, with fingerprint linkage validated link by link.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kvec {

class BinaryWriter {
 public:
  void WriteInt32(int32_t value);
  void WriteInt64(int64_t value);
  void WriteFloat(float value);
  void WriteDouble(double value);
  void WriteString(const std::string& value);
  void WriteFloatVector(const std::vector<float>& values);
  // Same wire format as WriteFloatVector, straight from a raw buffer (no
  // intermediate std::vector copy; used by the encoder arena snapshot).
  void WriteFloats(const float* values, size_t count);
  void WriteIntVector(const std::vector<int>& values);
  // Same wire format as WriteIntVector, straight from a raw buffer (used by
  // the pmr-backed per-key state, whose vectors are not std::vector).
  void WriteInts(const int* values, size_t count);

  const std::string& buffer() const { return buffer_; }

  // Writes the buffer to `path` with AtomicWriteFile. Returns false on I/O
  // failure.
  bool SaveToFile(const std::string& path) const;

 private:
  void Append(const void* data, size_t size);
  std::string buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string buffer);

  // All reads fail closed: on truncation, tag mismatch, or a bad length
  // prefix they set ok() to false and return 0 / an empty value.
  int32_t ReadInt32();
  int64_t ReadInt64();
  float ReadFloat();
  double ReadDouble();
  std::string ReadString();
  std::vector<float> ReadFloatVector();
  std::vector<int> ReadIntVector();

  bool ok() const { return ok_; }
  bool AtEnd() const { return position_ == buffer_.size(); }
  // Bytes not yet consumed. Restore loops bound their element counts by
  // this so a corrupted count can never spin a near-empty reader.
  size_t remaining() const { return buffer_.size() - position_; }

 private:
  // Returns false (and fails the reader) instead of reading past the end.
  bool Consume(void* data, size_t size);
  // Reads and validates the tag of one value.
  bool ConsumeTag(int32_t expected);
  // Reads a length prefix and validates 0 <= size and size * elem_size <=
  // remaining(); on failure fails the reader and returns false.
  bool ConsumeSize(size_t elem_size, int64_t* size);
  void Fail() { ok_ = false; }

  std::string buffer_;
  size_t position_ = 0;
  bool ok_ = true;
};

// ---- Checkpoint container ------------------------------------------------
//
// Layout (all raw little-endian, no per-value tags at the frame level):
//   uint32  magic          'KVCP'
//   int32   format version
//   int32   section count
//   per section:
//     int32 id
//     int64 payload length in bytes
//     byte* payload
//
// Payloads are opaque to the container (by convention they are BinaryWriter
// value streams). Unknown section ids are preserved by decode; consumers
// skip what they do not recognise.

inline constexpr uint32_t kCheckpointMagic = 0x4b564350u;  // "PCVK" on disk
// Version 1: full checkpoints. Pinned byte-for-byte by the v1 golden; a
// `Checkpoint` defaults to this so the full path can never silently drift.
inline constexpr int32_t kCheckpointFormatVersion = 1;
// Version 2: delta checkpoints (chain manifest + per-shard dirty-key
// deltas). Only `ShardedStreamServer::CheckpointIncremental` emits these.
inline constexpr int32_t kCheckpointDeltaFormatVersion = 2;
// Highest version CheckpointDecode accepts.
inline constexpr int32_t kCheckpointMaxFormatVersion = kCheckpointDeltaFormatVersion;

// ---- Section-id registry -------------------------------------------------
//
// Every section id in the checkpoint container namespace is defined here and
// nowhere else (enforced by the `section-id` lint rule), so two subsystems
// can never collide on an id without the clash being visible in one file.
//
// Serving state (full checkpoints, version 1):
inline constexpr int32_t kCheckpointSectionStreamServer = 1;
inline constexpr int32_t kCheckpointSectionShardManifest = 2;
inline constexpr int32_t kCheckpointSectionShard = 3;
// Delta chains (version 2):
inline constexpr int32_t kCheckpointSectionDeltaManifest = 4;
inline constexpr int32_t kCheckpointSectionShardDelta = 5;
// Model bundles (src/cli/model_io.h owns the payload layouts):
inline constexpr int32_t kCheckpointSectionModelConfig = 16;
inline constexpr int32_t kCheckpointSectionModelParams = 17;

struct CheckpointSection {
  int32_t id = 0;
  std::string payload;
};

struct Checkpoint {
  int32_t version = kCheckpointFormatVersion;
  std::vector<CheckpointSection> sections;

  // First section with this id, or nullptr.
  const CheckpointSection* Find(int32_t id) const;
};

// Frames `checkpoint` into a byte string (always succeeds).
std::string CheckpointEncode(const Checkpoint& checkpoint);

// Parses `bytes`; returns false (leaving `*out` unspecified) on a bad
// magic, an unknown future version, a malformed frame, or truncation.
// Never aborts and never allocates more than `bytes.size()` payload.
bool CheckpointDecode(const std::string& bytes, Checkpoint* out);

// File entry points: Save frames + writes with AtomicWriteFile (a failed
// save leaves the previous file as it was), Load reads with ReadFile +
// parses.
bool CheckpointSave(const std::string& path, const Checkpoint& checkpoint);
bool CheckpointLoad(const std::string& path, Checkpoint* out);

// FNV-1a 64 over the encoded bytes. Delta-chain manifests embed the base
// checkpoint's fingerprint (and the previous link's) so a delta can never be
// applied to a base it was not cut against. Not cryptographic — this guards
// against operational mix-ups and reordering, not adversaries.
uint64_t CheckpointFingerprint(const std::string& bytes);

// Writes `bytes` to `path` via a sibling ".tmp" file + rename, so a crash
// mid-write leaves either the old file or the complete new one on disk,
// never a torn one. The file is fsynced before the rename and its
// directory after it, so a true return means the bytes are durably on disk.
// On false the ".tmp" is removed and `path` is untouched (unless only the
// directory fsync failed, after the rename). Every checkpoint, delta link,
// model file and model bundle is written through this.
bool AtomicWriteFile(const std::string& path, const std::string& bytes);

// Reads the whole of `path` into `*out` in one sized read. Returns false
// (leaving `*out` untouched) if the file cannot be opened or read. Every
// checkpoint, delta link, model file and model bundle is read through this.
bool ReadFile(const std::string& path, std::string* out);

}  // namespace kvec

