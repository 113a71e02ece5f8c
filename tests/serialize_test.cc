#include "util/serialize.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace kvec {
namespace {

TEST(SerializeTest, RoundTripAllTypes) {
  BinaryWriter writer;
  writer.WriteInt32(-42);
  writer.WriteInt64(1234567890123LL);
  writer.WriteFloat(3.25f);
  writer.WriteString("hello kvec");
  writer.WriteFloatVector({1.0f, -2.5f, 0.0f});
  writer.WriteIntVector({7, 8, 9});

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadInt32(), -42);
  EXPECT_EQ(reader.ReadInt64(), 1234567890123LL);
  EXPECT_EQ(reader.ReadFloat(), 3.25f);
  EXPECT_EQ(reader.ReadString(), "hello kvec");
  EXPECT_EQ(reader.ReadFloatVector(), (std::vector<float>{1.0f, -2.5f, 0.0f}));
  EXPECT_EQ(reader.ReadIntVector(), (std::vector<int>{7, 8, 9}));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(reader.ok());
}

TEST(SerializeTest, EmptyContainers) {
  BinaryWriter writer;
  writer.WriteString("");
  writer.WriteFloatVector({});
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_TRUE(reader.ok());
}

TEST(SerializeTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/kvec_serialize_test.bin";
  BinaryWriter writer;
  writer.WriteInt32(99);
  writer.WriteFloatVector({0.5f, 1.5f});
  ASSERT_TRUE(writer.SaveToFile(path));

  std::string bytes;
  ASSERT_TRUE(ReadFile(path, &bytes));
  BinaryReader reader(bytes);
  EXPECT_EQ(reader.ReadInt32(), 99);
  EXPECT_EQ(reader.ReadFloatVector(), (std::vector<float>{0.5f, 1.5f}));
  EXPECT_TRUE(reader.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileReportsNotOk) {
  std::string bytes;
  EXPECT_FALSE(ReadFile("/nonexistent/kvec.bin", &bytes));
}

// ---- Fail-closed reads (the reader must never abort, allocate huge
// buffers, or read out of bounds on untrusted bytes). ----

TEST(SerializeTest, TypeMismatchFailsClosed) {
  BinaryWriter writer;
  writer.WriteInt32(1);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadFloat(), 0.0f);
  EXPECT_FALSE(reader.ok());
  // Once failed, every later read fails too — even one the bytes could
  // have satisfied.
  EXPECT_EQ(reader.ReadInt32(), 0);
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, TruncatedVectorFailsClosed) {
  BinaryWriter writer;
  writer.WriteFloatVector({1.0f, 2.0f, 3.0f});
  std::string truncated = writer.buffer().substr(0, 10);
  BinaryReader reader(truncated);
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, EveryTruncationPointFailsClosed) {
  BinaryWriter writer;
  writer.WriteInt32(7);
  writer.WriteString("abc");
  writer.WriteIntVector({1, 2, 3});
  const std::string& full = writer.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BinaryReader reader(full.substr(0, cut));
    reader.ReadInt32();
    reader.ReadString();
    reader.ReadIntVector();
    EXPECT_FALSE(reader.ok()) << "cut at " << cut;
  }
}

TEST(SerializeTest, OversizedLengthPrefixFailsWithoutAllocating) {
  // Hand-craft a float vector whose length prefix claims 2^60 elements:
  // the reader must reject it by comparing against the bytes remaining,
  // not by trying to allocate.
  BinaryWriter writer;
  writer.WriteFloatVector({1.0f, 2.0f});
  std::string bytes = writer.buffer();
  const int64_t huge = int64_t{1} << 60;
  std::memcpy(&bytes[4], &huge, sizeof(huge));  // after the 4-byte tag
  BinaryReader reader(bytes);
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, NegativeLengthPrefixFailsClosed) {
  BinaryWriter writer;
  writer.WriteString("abcd");
  std::string bytes = writer.buffer();
  const int64_t negative = -5;
  std::memcpy(&bytes[4], &negative, sizeof(negative));
  BinaryReader reader(bytes);
  EXPECT_TRUE(reader.ReadString().empty());
  EXPECT_FALSE(reader.ok());
}

TEST(SerializeTest, RemainingTracksConsumption) {
  BinaryWriter writer;
  writer.WriteInt32(5);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.remaining(), writer.buffer().size());
  reader.ReadInt32();
  EXPECT_EQ(reader.remaining(), 0u);
}

// ---- Checkpoint container ----

Checkpoint MakeTwoSectionCheckpoint() {
  Checkpoint checkpoint;
  // kvec-lint: allow-next(section-id) container framing test, ids arbitrary
  checkpoint.sections.push_back({1, std::string("alpha")});
  // kvec-lint: allow-next(section-id) container framing test, ids arbitrary
  checkpoint.sections.push_back({7, std::string("\x00\x01\x02", 3)});
  return checkpoint;
}

TEST(CheckpointContainerTest, EncodeDecodeRoundTrip) {
  const std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  Checkpoint decoded;
  ASSERT_TRUE(CheckpointDecode(bytes, &decoded));
  EXPECT_EQ(decoded.version, kCheckpointFormatVersion);
  ASSERT_EQ(decoded.sections.size(), 2u);
  EXPECT_EQ(decoded.sections[0].id, 1);
  EXPECT_EQ(decoded.sections[0].payload, "alpha");
  EXPECT_EQ(decoded.sections[1].id, 7);
  EXPECT_EQ(decoded.sections[1].payload, std::string("\x00\x01\x02", 3));
  // kvec-lint: allow-next(section-id) framing test looks up arbitrary ids
  ASSERT_NE(decoded.Find(7), nullptr);
  // kvec-lint: allow-next(section-id) framing test looks up arbitrary ids
  EXPECT_EQ(decoded.Find(7)->payload.size(), 3u);
  // kvec-lint: allow-next(section-id) framing test looks up arbitrary ids
  EXPECT_EQ(decoded.Find(99), nullptr);
}

TEST(CheckpointContainerTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/kvec_checkpoint_test.ckpt";
  ASSERT_TRUE(CheckpointSave(path, MakeTwoSectionCheckpoint()));
  Checkpoint decoded;
  ASSERT_TRUE(CheckpointLoad(path, &decoded));
  EXPECT_EQ(decoded.sections.size(), 2u);
  std::remove(path.c_str());
}

TEST(CheckpointContainerTest, RejectsBadMagic) {
  std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  bytes[0] ^= 0xff;
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(bytes, &decoded));
}

TEST(CheckpointContainerTest, RejectsFutureVersion) {
  Checkpoint future = MakeTwoSectionCheckpoint();
  future.version = kCheckpointMaxFormatVersion + 1;
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(CheckpointEncode(future), &decoded));
  future.version = 0;
  EXPECT_FALSE(CheckpointDecode(CheckpointEncode(future), &decoded));
}

TEST(CheckpointContainerTest, AcceptsEveryKnownVersion) {
  for (int32_t v = kCheckpointFormatVersion; v <= kCheckpointMaxFormatVersion;
       ++v) {
    Checkpoint known = MakeTwoSectionCheckpoint();
    known.version = v;
    Checkpoint decoded;
    ASSERT_TRUE(CheckpointDecode(CheckpointEncode(known), &decoded));
    EXPECT_EQ(decoded.version, v);
  }
}

TEST(AtomicWriteFileTest, WritesAndReplaces) {
  const std::string path = ::testing::TempDir() + "/atomic_write_test.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "first"));
  ASSERT_TRUE(AtomicWriteFile(path, std::string("\x00second\xff", 9)));
  std::string read;
  ASSERT_TRUE(ReadFile(path, &read));
  EXPECT_EQ(read, std::string("\x00second\xff", 9));
  std::remove(path.c_str());
}

// A whole-file writer and the reader for what it wrote, both over one
// opaque payload.
struct FileCodec {
  const char* name;
  std::function<bool(const std::string& path, const std::string& payload)>
      write;
  std::function<bool(const std::string& path, std::string* payload)> read;
};

std::vector<FileCodec> FileCodecs() {
  return {
      {"AtomicWriteFile", AtomicWriteFile, ReadFile},
      {"CheckpointSave",
       [](const std::string& path, const std::string& payload) {
         Checkpoint checkpoint;
         checkpoint.sections.push_back(
             {kCheckpointSectionStreamServer, payload});
         return CheckpointSave(path, checkpoint);
       },
       [](const std::string& path, std::string* payload) {
         Checkpoint checkpoint;
         if (!CheckpointLoad(path, &checkpoint) ||
             checkpoint.sections.size() != 1) {
           return false;
         }
         *payload = checkpoint.sections[0].payload;
         return true;
       }},
  };
}

TEST(AtomicWriteFileTest, FailedWriteLeavesOldFileAndNoTemporary) {
  // A file-size limit cuts the write short: at 1000 bytes only the final
  // buffer flush fails, at 100000 the first write does. Either way the
  // call must report failure, keep the previous file loadable byte for
  // byte, and leave no ".tmp" behind. The limit is lowered in a forked
  // child, so only that child is constrained.
  const std::string path = ::testing::TempDir() + "/atomic_write_fsize.bin";
  const std::string good(50, 'g');
  for (const FileCodec& codec : FileCodecs()) {
    for (const size_t payload : {size_t{1000}, size_t{100000}}) {
      SCOPED_TRACE(std::string(codec.name) + ", payload " +
                   std::to_string(payload));
      ASSERT_TRUE(codec.write(path, good));
      const pid_t child = fork();
      ASSERT_GE(child, 0);
      if (child == 0) {
        std::signal(SIGXFSZ, SIG_IGN);
        const rlimit limit{100, 100};
        if (setrlimit(RLIMIT_FSIZE, &limit) != 0) _exit(2);
        _exit(codec.write(path, std::string(payload, 'x')) ? 1 : 0);
      }
      int status = 0;
      ASSERT_EQ(waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0)
          << "the cut-short write reported success";
      std::string kept;
      EXPECT_TRUE(codec.read(path, &kept)) << "the old file no longer loads";
      EXPECT_EQ(kept, good);
      EXPECT_NE(access((path + ".tmp").c_str(), F_OK), 0) << ".tmp leaked";
      std::remove((path + ".tmp").c_str());
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointFingerprintTest, SensitiveToEveryByte) {
  const std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  const uint64_t base = CheckpointFingerprint(bytes);
  EXPECT_EQ(base, CheckpointFingerprint(bytes));  // deterministic
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(CheckpointFingerprint(mutated), base) << "byte " << i;
  }
}

TEST(CheckpointContainerTest, RejectsEveryTruncationPoint) {
  const std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Checkpoint decoded;
    EXPECT_FALSE(CheckpointDecode(bytes.substr(0, cut), &decoded))
        << "cut at " << cut;
  }
}

TEST(CheckpointContainerTest, RejectsTrailingGarbage) {
  std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  bytes.push_back('x');
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(bytes, &decoded));
}

TEST(CheckpointContainerTest, RejectsOversizedSectionCount) {
  std::string bytes = CheckpointEncode(MakeTwoSectionCheckpoint());
  const int32_t huge = 1 << 30;
  std::memcpy(&bytes[8], &huge, sizeof(huge));  // section-count field
  Checkpoint decoded;
  EXPECT_FALSE(CheckpointDecode(bytes, &decoded));
}

}  // namespace
}  // namespace kvec
