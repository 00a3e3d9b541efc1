#include "client/protocol.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "client/client.h"
#include "client/server.h"
#include "common/random.h"
#include "serve/serve_protocol.h"

namespace mlcs::client {
namespace {

TablePtr MixedTable() {
  Schema s;
  s.AddField("i", TypeId::kInt32);
  s.AddField("l", TypeId::kInt64);
  s.AddField("d", TypeId::kDouble);
  s.AddField("b", TypeId::kBool);
  s.AddField("v", TypeId::kVarchar);
  s.AddField("blob", TypeId::kBlob);
  auto t = Table::Make(std::move(s));
  EXPECT_TRUE(t->AppendRow({Value::Int32(-1), Value::Int64(1LL << 40),
                            Value::Double(2.5), Value::Bool(true),
                            Value::Varchar("hello"),
                            Value::Blob(std::string("\x01\x02", 2))})
                  .ok());
  EXPECT_TRUE(
      t->AppendRow({Value::MakeNull(TypeId::kInt32),
                    Value::MakeNull(TypeId::kInt64),
                    Value::MakeNull(TypeId::kDouble),
                    Value::MakeNull(TypeId::kBool),
                    Value::MakeNull(TypeId::kVarchar),
                    Value::MakeNull(TypeId::kBlob)})
          .ok());
  return t;
}

class ProtocolRoundTripTest : public ::testing::TestWithParam<WireProtocol> {
};

/// Property: encode → decode is the identity for every protocol. (Note the
/// pg-text protocol is lossless here because FormatDouble is shortest-
/// round-trip, like PostgreSQL's extra_float_digits=3.)
TEST_P(ProtocolRoundTripTest, MixedTableRoundTrips) {
  WireProtocol protocol = GetParam();
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, t->num_rows(), &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, protocol).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
}

TEST_P(ProtocolRoundTripTest, RandomizedNumericRoundTrip) {
  WireProtocol protocol = GetParam();
  Schema s;
  s.AddField("x", TypeId::kInt64);
  s.AddField("y", TypeId::kDouble);
  auto t = Table::Make(std::move(s));
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    if (rng.NextDouble() < 0.02) {
      ASSERT_TRUE(t->AppendRow({Value::MakeNull(TypeId::kInt64),
                                Value::MakeNull(TypeId::kDouble)})
                      .ok());
    } else {
      ASSERT_TRUE(
          t->AppendRow({Value::Int64(static_cast<int64_t>(rng.NextU64())),
                        Value::Double(rng.NextGaussian())})
              .ok());
    }
  }
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, protocol, 0, t->num_rows(), &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, protocol).ValueOrDie();
  EXPECT_TRUE(t->Equals(*back));
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolRoundTripTest,
                         ::testing::Values(WireProtocol::kPgText,
                                           WireProtocol::kMyBinary,
                                           WireProtocol::kColumnar));

TEST(ProtocolTest, TextIsLargerThanBinaryForWideInts) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(1234567890123456789LL)}).ok());
  }
  ByteWriter text, binary;
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kPgText, 0, 1000, &text).ok());
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kMyBinary, 0, 1000, &binary).ok());
  EXPECT_GT(text.size(), binary.size());
}

/// The columnar block drops the per-row marker and per-row NULL bitmap, so
/// for all-valid fixed-width data it beats the mysql-style binary rows.
TEST(ProtocolTest, ColumnarIsSmallerThanBinaryRows) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  s.AddField("y", TypeId::kDouble);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        t->AppendRow({Value::Int64(i), Value::Double(i * 0.5)}).ok());
  }
  ByteWriter binary, columnar;
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kMyBinary, 0, 1000, &binary).ok());
  ASSERT_TRUE(
      EncodeRows(*t, WireProtocol::kColumnar, 0, 1000, &columnar).ok());
  EXPECT_LT(columnar.size(), binary.size());
}

TEST(ProtocolTest, ColumnarPartialRangeRoundTrips) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 1, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kColumnar).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
}

/// Two columnar blocks appended to one result set decode correctly even
/// when the first block introduces NULLs (the bulk fast path must detect
/// the column already carries a validity vector).
TEST(ProtocolTest, ColumnarMultipleBlocksWithNulls) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 1, 1, &out).ok());
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 0, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kColumnar).ValueOrDie();
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
  EXPECT_EQ(back->GetValue(1, 0).ValueOrDie(), Value::Int32(-1));
}

TEST(ProtocolTest, ColumnarTruncatedBlockRejected) {
  Schema s;
  s.AddField("x", TypeId::kInt64);
  auto t = Table::Make(std::move(s));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(i)}).ok());
  }
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kColumnar, 0, 100, &out).ok());
  ByteReader in(out.data().data(), out.size() / 2);
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kColumnar).ok());
}

/// A block header may declare an absurd row count; the decoder must reject
/// it before sizing any buffer from the wire value.
TEST(ProtocolTest, ColumnarOversizedBlockCountRejected) {
  ByteWriter out;
  out.WriteU16(1);
  out.WriteString("x");
  out.WriteU8(static_cast<uint8_t>(TypeId::kInt64));
  out.WriteU8('B');
  out.WriteU32(0xFFFFFFFFu);  // declared rows far beyond the payload
  out.WriteU8(0);             // no nulls
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kColumnar).ok());
}

TEST(ProtocolTest, PartialRangeEncoding) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kMyBinary, 1, 1, &out).ok());
  EncodeEnd(&out);
  ByteReader in(out.data());
  auto back = DecodeResultSet(&in, WireProtocol::kMyBinary).ValueOrDie();
  EXPECT_EQ(back->num_rows(), 1u);
  EXPECT_TRUE(back->GetValue(0, 0).ValueOrDie().is_null());
}

TEST(ProtocolTest, RangeOverflowRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EXPECT_FALSE(EncodeRows(*t, WireProtocol::kPgText, 1, 5, &out).ok());
}

TEST(ProtocolTest, CorruptStreamRejected) {
  ByteWriter out;
  out.WriteU16(1);
  out.WriteString("x");
  out.WriteU8(static_cast<uint8_t>(TypeId::kInt32));
  out.WriteU8('Z');  // bogus marker
  ByteReader in(out.data());
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kPgText).ok());
}

TEST(ProtocolTest, TruncatedStreamRejected) {
  auto t = MixedTable();
  ByteWriter out;
  EncodeHeader(t->schema(), &out);
  ASSERT_TRUE(EncodeRows(*t, WireProtocol::kPgText, 0, 2, &out).ok());
  // No end marker and half the bytes.
  ByteReader in(out.data().data(), out.size() / 2);
  EXPECT_FALSE(DecodeResultSet(&in, WireProtocol::kPgText).ok());
}

// ---------------------------------------------------------------------------
// Negative paths over a real socket: malformed frames must produce clean
// Status errors on the peer that caused them — never a hang, crash, or a
// poisoned server. Each test drives TableServer with raw bytes on the
// u32-length framing (serve/serve_protocol.h).
// ---------------------------------------------------------------------------

/// Writes raw bytes past the framing (tiny writes on a fresh socket).
bool SendRaw(int fd, const void* data, size_t size) {
  return ::send(fd, data, size, MSG_NOSIGNAL) ==
         static_cast<ssize_t>(size);
}

class MalformedFrameTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Run("CREATE TABLE t (x INTEGER);"
                        "INSERT INTO t VALUES (1), (2);")
                    .ok());
    server_ = std::make_unique<TableServer>(&db_);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override { server_->Stop(); }

  /// Raw client socket, no protocol smarts.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  /// The server must still serve a well-formed client after whatever abuse
  /// the test inflicted — proof one bad peer cannot poison it.
  void ExpectServerStillHealthy() {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    auto r = client.Query("SELECT COUNT(*) FROM t", WireProtocol::kColumnar);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.ValueOrDie()->GetValue(0, 0).ValueOrDie(), Value::Int64(2));
  }

  Database db_;
  std::unique_ptr<TableServer> server_;
};

TEST_F(MalformedFrameTest, TruncatedLengthPrefixDisconnect) {
  int fd = RawConnect();
  // Only 2 of the 4 length-prefix bytes, then hang up.
  const uint8_t partial[] = {0x10, 0x00};
  ASSERT_TRUE(SendRaw(fd, partial, sizeof(partial)));
  ::close(fd);
  ExpectServerStillHealthy();
}

TEST_F(MalformedFrameTest, OversizedDeclaredLengthAnswered) {
  int fd = RawConnect();
  uint32_t absurd_len = 0xF0000000u;  // ~4 GB claimed, nothing sent
  ASSERT_TRUE(SendRaw(fd, &absurd_len, sizeof(absurd_len)));
  // The server must answer with an error frame (not silently hang up, and
  // certainly not allocate 4 GB), then hang up.
  auto frame = serve::ReadFrame(fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ByteReader reader(frame.ValueOrDie());
  auto response = serve::DecodePredictResponse(&reader);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.ValueOrDie().code, serve::ServeCode::kBadRequest);
  EXPECT_NE(response.ValueOrDie().message.find("frame cap"),
            std::string::npos);
  EXPECT_FALSE(serve::ReadFrame(fd).ok());
  ::close(fd);
  ExpectServerStillHealthy();
}

TEST_F(MalformedFrameTest, UnknownProtocolByteAnswered) {
  int fd = RawConnect();
  ByteWriter body;
  body.WriteU8('q');
  body.WriteU8(0x7F);  // no such WireProtocol
  body.WriteRaw("SELECT 1", 8);
  ASSERT_TRUE(serve::WriteFrame(fd, body).ok());
  auto frame = serve::ReadFrame(fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ByteReader reader(frame.ValueOrDie());
  auto result = serve::DecodeQueryResponse(&reader, WireProtocol::kPgText);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad protocol"),
            std::string::npos);
  ::close(fd);
  ExpectServerStillHealthy();
}

TEST_F(MalformedFrameTest, MidFrameDisconnect) {
  int fd = RawConnect();
  uint32_t frame_len = 1000;  // promise 1000 bytes ...
  const uint8_t head[] = {'q', 1};
  ASSERT_TRUE(SendRaw(fd, &frame_len, sizeof(frame_len)));
  ASSERT_TRUE(SendRaw(fd, head, sizeof(head)));
  ASSERT_TRUE(SendRaw(fd, "SELECT", 6));  // ... deliver 8, vanish
  ::close(fd);
  ExpectServerStillHealthy();
}

size_t ProcessThreadCount() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Connections cost no threads: one I/O thread serves them all, so 64
/// concurrent connections, each with a finished query, leave the process
/// with no more threads than one connection does.
TEST_F(MalformedFrameTest, ConnectionsAddNoThreads) {
  auto query = [](Client* client) {
    return client->Query("SELECT COUNT(*) FROM t", WireProtocol::kMyBinary)
        .ok();
  };
  Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(query(&first));
  size_t with_one = ProcessThreadCount();
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 64; ++i) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(query(clients.back().get()));
  }
  EXPECT_LE(ProcessThreadCount(), with_one);
}

}  // namespace
}  // namespace mlcs::client
