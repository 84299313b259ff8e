// Replays the checked-in fuzz corpus (tests/fuzz/corpus/) through the same
// decoder surfaces the fuzz drivers exercise, with explicit expectations for
// each named regression. The corpus directory is baked in at compile time
// (PAST_FUZZ_CORPUS_DIR), so these run in the default ctest sweep — a decoder
// regression fails here even when nobody runs `ctest -L fuzz_smoke`.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/common/bytes.h"
#include "src/diskstore/log_format.h"
#include "src/net/frame.h"
#include "src/obs/json.h"
#include "src/pastry/messages.h"
#include "src/storage/messages.h"

namespace past {
namespace {

std::filesystem::path CorpusDir() { return PAST_FUZZ_CORPUS_DIR; }

Bytes ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

std::string ReadText(const std::string& name) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_obs_json" / name);
  return std::string(raw.begin(), raw.end());
}

// --- obs/json ----------------------------------------------------------------

TEST(FuzzCorpusJson, NumberOverflowRejected) {
  // 1e999 overflows to inf, which Dump() cannot represent; the parser must
  // reject it rather than accept a value that breaks dump round-trips.
  JsonValue doc;
  EXPECT_FALSE(JsonValue::Parse(ReadText("json_number_overflow.json"), &doc));
}

TEST(FuzzCorpusJson, SurrogateEscapeRejected) {
  // A lone \ud800 is not a code point; encoding it would emit invalid UTF-8.
  JsonValue doc;
  EXPECT_FALSE(JsonValue::Parse(ReadText("json_surrogate_escape.json"), &doc));
}

TEST(FuzzCorpusJson, PlusPrefixedNumberRejected) {
  // strtod accepts a leading '+' that JSON does not allow.
  JsonValue doc;
  EXPECT_FALSE(
      JsonValue::Parse(ReadText("json_plus_prefixed_number.json"), &doc));
}

TEST(FuzzCorpusJson, DeepNestingRejected) {
  JsonValue doc;
  EXPECT_FALSE(JsonValue::Parse(ReadText("json_deep_nesting.json"), &doc));
}

TEST(FuzzCorpusJson, ValidDocumentRoundTrips) {
  JsonValue doc;
  ASSERT_TRUE(JsonValue::Parse(ReadText("json_all_types.json"), &doc));
  std::string once = doc.Dump();
  JsonValue doc2;
  ASSERT_TRUE(JsonValue::Parse(once, &doc2));
  EXPECT_EQ(doc2.Dump(), once);
}

// --- pastry/messages ---------------------------------------------------------

TEST(FuzzCorpusPastry, TruncatedHeaderRejected) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_pastry_messages" /
                       "pastry_truncated_header.bin");
  Reader r(ByteSpan(raw.data(), raw.size()));
  PastryMsgType type;
  EXPECT_FALSE(DecodeHeader(&r, &type));
}

TEST(FuzzCorpusPastry, BadVersionRejected) {
  Bytes raw =
      ReadFile(CorpusDir() / "fuzz_pastry_messages" / "pastry_bad_version.bin");
  Reader r(ByteSpan(raw.data(), raw.size()));
  PastryMsgType type;
  EXPECT_FALSE(DecodeHeader(&r, &type));
}

TEST(FuzzCorpusPastry, AbsurdTraceCountRejected) {
  // Every fixed field of a route message, then a trace-count prefix claiming
  // ~4 billion hop records with nothing behind it: the decoder must fail on
  // the length guard instead of attempting the allocation.
  Bytes raw = ReadFile(CorpusDir() / "fuzz_pastry_messages" /
                       "pastry_route_absurd_count.bin");
  ASSERT_EQ(raw.size(), 63u);
  Reader r(ByteSpan(raw.data(), raw.size()));
  PastryMsgType type;
  ASSERT_TRUE(DecodeHeader(&r, &type));
  ASSERT_EQ(type, PastryMsgType::kRoute);
  RouteMsg msg;
  EXPECT_FALSE(DecodeBodyStrict(&r, &msg));

  // The decoder does reach the count: the same bytes with a count of 0 and
  // an empty payload blob decode.
  Bytes fixed = raw;
  std::fill(fixed.end() - 4, fixed.end(), 0);
  fixed.insert(fixed.end(), 4, 0);
  Reader r2(ByteSpan(fixed.data(), fixed.size()));
  ASSERT_TRUE(DecodeHeader(&r2, &type));
  EXPECT_TRUE(DecodeBodyStrict(&r2, &msg));
  EXPECT_TRUE(msg.trace.empty());
}

TEST(FuzzCorpusPastry, RetiredKeepAliveAckRejected) {
  // A well-formed body behind wire type 9, the keep-alive ack that ring-
  // neighbour heartbeats retired: the header decoder must refuse the type.
  Bytes raw = ReadFile(CorpusDir() / "fuzz_pastry_messages" /
                       "pastry_retired_keepalive_ack.bin");
  Reader r(ByteSpan(raw.data(), raw.size()));
  PastryMsgType type;
  EXPECT_FALSE(DecodeHeader(&r, &type));
}

TEST(FuzzCorpusPastry, TruncatedFailureNoticeRejected) {
  // The failed node's descriptor stops after 10 of its 20 bytes.
  Bytes raw = ReadFile(CorpusDir() / "fuzz_pastry_messages" /
                       "pastry_failure_notice_truncated.bin");
  Reader r(ByteSpan(raw.data(), raw.size()));
  PastryMsgType type;
  ASSERT_TRUE(DecodeHeader(&r, &type));
  ASSERT_EQ(type, PastryMsgType::kFailureNotice);
  FailureNoticeMsg msg;
  EXPECT_FALSE(DecodeBodyStrict(&r, &msg));
}

TEST(FuzzCorpusPastry, FailureNoticeWithoutHearsayFlagRejected) {
  // Both descriptors complete but no hearsay flag byte: the notice as it was
  // before the flag. Strict decoding must refuse it rather than guess.
  Bytes raw = ReadFile(CorpusDir() / "fuzz_pastry_messages" /
                       "pastry_failure_notice_no_hearsay_flag.bin");
  ASSERT_EQ(raw.size(), 42u);
  Reader r(ByteSpan(raw.data(), raw.size()));
  PastryMsgType type;
  ASSERT_TRUE(DecodeHeader(&r, &type));
  ASSERT_EQ(type, PastryMsgType::kFailureNotice);
  FailureNoticeMsg msg;
  EXPECT_FALSE(DecodeBodyStrict(&r, &msg));
}

// --- storage/messages --------------------------------------------------------

// The op a storage corpus file selects: its byte 0 indexes PastPayloads, as
// in the fuzz driver.
PastOp SelectedOp(const Bytes& raw) {
  return PastPayloads::kCodes[raw[0] % PastPayloads::kCodes.size()];
}

TEST(FuzzCorpusStorage, TruncatedCertificateRejected) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_storage_messages" /
                       "storage_insert_truncated_cert.bin");
  ASSERT_GT(raw.size(), 1u);
  EXPECT_EQ(SelectedOp(raw), InsertRequestPayload::kOp);
  InsertRequestPayload payload;
  EXPECT_FALSE(InsertRequestPayload::Decode(
      ByteSpan(raw.data() + 1, raw.size() - 1), &payload));
}

TEST(FuzzCorpusStorage, ZeroModulusKeyRejected) {
  // A well-framed StoreReceipt whose embedded card key has n = 0: the key
  // decoder must reject it (a zero modulus can never verify and would abort
  // inside ModExp), which must fail the whole payload.
  Bytes raw = ReadFile(CorpusDir() / "fuzz_storage_messages" /
                       "storage_zero_modulus_key.bin");
  ASSERT_GT(raw.size(), 1u);
  EXPECT_EQ(SelectedOp(raw), StoreReceiptPayload::kOp);
  StoreReceiptPayload payload;
  EXPECT_FALSE(StoreReceiptPayload::Decode(
      ByteSpan(raw.data() + 1, raw.size() - 1), &payload));
}

TEST(FuzzCorpusStorage, EmptyAuditResponseRejected) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_storage_messages" / "storage_empty_payload.bin");
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(SelectedOp(raw), AuditResponsePayload::kOp);
  AuditResponsePayload payload;
  EXPECT_FALSE(AuditResponsePayload::Decode(ByteSpan(raw.data() + 1, 0), &payload));
}

TEST(FuzzCorpusStorage, AbsurdBlobLengthRejected) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_storage_messages" /
                       "storage_lookup_reply_absurd_blob.bin");
  ASSERT_GT(raw.size(), 1u);
  EXPECT_EQ(SelectedOp(raw), LookupReplyPayload::kOp);
  LookupReplyPayload payload;
  EXPECT_FALSE(LookupReplyPayload::Decode(
      ByteSpan(raw.data() + 1, raw.size() - 1), &payload));
}

// --- diskstore/log_format ----------------------------------------------------

TEST(FuzzCorpusDiskstore, BadMagicRejected) {
  Bytes raw =
      ReadFile(CorpusDir() / "fuzz_diskstore_log" / "diskstore_bad_magic.bin");
  uint64_t seq = 0;
  EXPECT_FALSE(DecodeSegmentHeader(ByteSpan(raw.data(), raw.size()), &seq));
}

TEST(FuzzCorpusDiskstore, CrcMismatchIsCorrupt) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_diskstore_log" /
                       "diskstore_crc_mismatch.bin");
  uint64_t seq = 0;
  ASSERT_TRUE(DecodeSegmentHeader(ByteSpan(raw.data(), raw.size()), &seq));
  size_t offset = kSegmentHeaderSize;
  Record record;
  EXPECT_EQ(ParseRecord(ByteSpan(raw.data(), raw.size()), &offset, &record),
            ParseStatus::kCorrupt);
  EXPECT_EQ(offset, kSegmentHeaderSize);
}

TEST(FuzzCorpusDiskstore, LengthTooSmallIsCorrupt) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_diskstore_log" /
                       "diskstore_len_too_small.bin");
  uint64_t seq = 0;
  ASSERT_TRUE(DecodeSegmentHeader(ByteSpan(raw.data(), raw.size()), &seq));
  size_t offset = kSegmentHeaderSize;
  Record record;
  EXPECT_EQ(ParseRecord(ByteSpan(raw.data(), raw.size()), &offset, &record),
            ParseStatus::kCorrupt);
}

TEST(FuzzCorpusDiskstore, BadRecordTypeIsCorrupt) {
  Bytes raw = ReadFile(CorpusDir() / "fuzz_diskstore_log" /
                       "diskstore_bad_record_type.bin");
  uint64_t seq = 0;
  ASSERT_TRUE(DecodeSegmentHeader(ByteSpan(raw.data(), raw.size()), &seq));
  size_t offset = kSegmentHeaderSize;
  Record record;
  EXPECT_EQ(ParseRecord(ByteSpan(raw.data(), raw.size()), &offset, &record),
            ParseStatus::kCorrupt);
}

TEST(FuzzCorpusDiskstore, TornTailKeepsConsistentPrefix) {
  Bytes raw =
      ReadFile(CorpusDir() / "fuzz_diskstore_log" / "diskstore_torn_tail.bin");
  uint64_t seq = 0;
  ASSERT_TRUE(DecodeSegmentHeader(ByteSpan(raw.data(), raw.size()), &seq));
  size_t offset = kSegmentHeaderSize;
  Record record;
  ASSERT_EQ(ParseRecord(ByteSpan(raw.data(), raw.size()), &offset, &record),
            ParseStatus::kOk);
  EXPECT_EQ(record.type, RecordType::kPut);
  size_t cut = offset;
  EXPECT_EQ(ParseRecord(ByteSpan(raw.data(), raw.size()), &offset, &record),
            ParseStatus::kTruncated);
  EXPECT_EQ(offset, cut);
}

// --- net/frame ---------------------------------------------------------------

Bytes NetFrameFile(const std::string& name) {
  return ReadFile(CorpusDir() / "fuzz_net_frame" / name);
}

TEST(FuzzCorpusNetFrame, TruncatedHeaderNeedsMore) {
  Bytes raw = NetFrameFile("frame_truncated_header.bin");
  FrameHeader header;
  ByteSpan payload;
  EXPECT_EQ(DecodeFrame(ByteSpan(raw.data(), raw.size()), 1u << 20, &header,
                        &payload),
            FrameError::kNeedMore);
}

TEST(FuzzCorpusNetFrame, AbsurdLengthCappedBeforeAllocation) {
  // payload_len = 0xffffffff with valid magic/version: the cap must reject
  // it from the header alone, never trusting the length.
  Bytes raw = NetFrameFile("frame_absurd_length.bin");
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(ByteSpan(raw.data(), raw.size()), 1u << 20, &header),
            FrameError::kTooLarge);
}

TEST(FuzzCorpusNetFrame, BadMagicRejected) {
  Bytes raw = NetFrameFile("frame_bad_magic.bin");
  FrameHeader header;
  ByteSpan payload;
  EXPECT_EQ(DecodeFrame(ByteSpan(raw.data(), raw.size()), 1u << 20, &header,
                        &payload),
            FrameError::kBadMagic);
}

TEST(FuzzCorpusNetFrame, BadVersionRejected) {
  Bytes raw = NetFrameFile("frame_bad_version.bin");
  FrameHeader header;
  ByteSpan payload;
  EXPECT_EQ(DecodeFrame(ByteSpan(raw.data(), raw.size()), 1u << 20, &header,
                        &payload),
            FrameError::kBadVersion);
}

TEST(FuzzCorpusNetFrame, BadCrcRejectedAndPoisonsStream) {
  Bytes raw = NetFrameFile("frame_bad_crc.bin");
  FrameHeader header;
  ByteSpan payload;
  EXPECT_EQ(DecodeFrame(ByteSpan(raw.data(), raw.size()), 1u << 20, &header,
                        &payload),
            FrameError::kBadCrc);
  FrameReader reader(1u << 20);
  reader.Append(ByteSpan(raw.data(), raw.size()));
  FrameHeader fh;
  Bytes body;
  EXPECT_EQ(reader.Next(&fh, &body), FrameError::kBadCrc);
  EXPECT_TRUE(reader.failed());
}

// --- generic sweep -----------------------------------------------------------

// Every corpus file must at least decode-or-fail cleanly through its surface;
// this catches a crash on a checked-in input even if no named test pins it.
TEST(FuzzCorpus, EveryFileReplaysWithoutCrashing) {
  size_t replayed = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(CorpusDir())) {
    if (!entry.is_regular_file()) {
      continue;
    }
    Bytes raw = ReadFile(entry.path());
    ByteSpan data(raw.data(), raw.size());
    std::string surface = entry.path().parent_path().filename().string();
    if (surface == "fuzz_obs_json") {
      JsonValue doc;
      (void)JsonValue::Parse(std::string(raw.begin(), raw.end()), &doc);
    } else if (surface == "fuzz_pastry_messages") {
      Reader r(data);
      PastryMsgType type;
      if (DecodeHeader(&r, &type)) {
        EXPECT_TRUE(PastryMessages::Visit(type, &r, [](auto&&) {}));
      }
    } else if (surface == "fuzz_storage_messages") {
      if (!raw.empty()) {
        Reader r(data.subspan(1));
        EXPECT_TRUE(PastPayloads::Visit(SelectedOp(raw), &r, [](auto&&) {}));
      }
    } else if (surface == "fuzz_net_frame") {
      FrameHeader header;
      ByteSpan payload;
      (void)DecodeFrame(data, 1u << 20, &header, &payload);
    } else if (surface == "fuzz_diskstore_log") {
      uint64_t seq = 0;
      if (DecodeSegmentHeader(data, &seq)) {
        size_t offset = kSegmentHeaderSize;
        Record record;
        while (ParseRecord(data, &offset, &record) == ParseStatus::kOk) {
        }
      }
    } else {
      ADD_FAILURE() << "corpus dir with no replay surface: " << surface;
    }
    ++replayed;
  }
  EXPECT_GE(replayed, 24u);  // the named regressions above must all be present
}

}  // namespace
}  // namespace past
