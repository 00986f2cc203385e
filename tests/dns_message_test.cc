#include "dns/message.h"

#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <string>
#include <vector>

#include "dns/chaos.h"
#include "dns/edns.h"

namespace fenrir::dns {
namespace {

TEST(Message, QueryRoundTrip) {
  const Message q = make_query(
      0x1234, Question{"www.example.com", RecordType::kA, RecordClass::kIn});
  const Message d = Message::decode(q.encode());
  EXPECT_EQ(d.header.id, 0x1234);
  EXPECT_FALSE(d.header.qr);
  EXPECT_TRUE(d.header.rd);
  ASSERT_EQ(d.questions.size(), 1u);
  EXPECT_EQ(d.questions[0].name, "www.example.com");
  EXPECT_EQ(d.questions[0].type, RecordType::kA);
  EXPECT_EQ(d.questions[0].klass, RecordClass::kIn);
}

TEST(Message, ResponseWithAnswerRoundTrip) {
  Message m = make_query(7, Question{"example.com", RecordType::kA,
                                     RecordClass::kIn});
  m.header.qr = true;
  m.header.aa = true;
  m.header.rcode = Rcode::kNoError;
  ResourceRecord rr;
  rr.name = "example.com";
  rr.type = RecordType::kA;
  rr.klass = 1;
  rr.ttl = 300;
  rr.rdata = make_a_rdata(0xc0000201);
  m.answers.push_back(rr);

  const Message d = Message::decode(m.encode());
  EXPECT_TRUE(d.header.qr);
  EXPECT_TRUE(d.header.aa);
  ASSERT_EQ(d.answers.size(), 1u);
  EXPECT_EQ(d.answers[0].ttl, 300u);
  EXPECT_EQ(d.answers[0].a_addr(), 0xc0000201u);
}

TEST(Message, HeaderFlagsRoundTrip) {
  Message m;
  m.header.id = 9;
  m.header.qr = true;
  m.header.opcode = 2;
  m.header.tc = true;
  m.header.rd = false;
  m.header.ra = true;
  m.header.rcode = Rcode::kRefused;
  const Message d = Message::decode(m.encode());
  EXPECT_TRUE(d.header.qr);
  EXPECT_EQ(d.header.opcode, 2);
  EXPECT_TRUE(d.header.tc);
  EXPECT_FALSE(d.header.rd);
  EXPECT_TRUE(d.header.ra);
  EXPECT_EQ(d.header.rcode, Rcode::kRefused);
}

TEST(Message, CountsRecomputedOnEncode) {
  Message m;
  m.header.qdcount = 99;  // lies; encode must ignore
  m.questions.push_back(
      Question{"a.example", RecordType::kTxt, RecordClass::kChaos});
  const Message d = Message::decode(m.encode());
  EXPECT_EQ(d.header.qdcount, 1);
  EXPECT_EQ(d.header.ancount, 0);
}

TEST(Message, AllSectionsRoundTrip) {
  Message m;
  ResourceRecord rr;
  rr.name = "x.example";
  rr.type = RecordType::kTxt;
  rr.rdata = make_txt_rdata("hello");
  m.answers.push_back(rr);
  m.authority.push_back(rr);
  m.additional.push_back(rr);
  const Message d = Message::decode(m.encode());
  EXPECT_EQ(d.answers.size(), 1u);
  EXPECT_EQ(d.authority.size(), 1u);
  EXPECT_EQ(d.additional.size(), 1u);
}

TEST(Message, DecodeTruncatedThrows) {
  const Message q =
      make_query(1, Question{"example.com", RecordType::kA, RecordClass::kIn});
  auto bytes = q.encode();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(Message::decode(bytes), DnsError);
}

TEST(Message, DecodeEmptyThrows) {
  EXPECT_THROW(Message::decode(std::vector<std::uint8_t>{}), DnsError);
}

TEST(Txt, SingleChunk) {
  ResourceRecord rr;
  rr.type = RecordType::kTxt;
  rr.rdata = make_txt_rdata("b1.lax.example");
  EXPECT_EQ(rr.txt(), "b1.lax.example");
}

TEST(Txt, LongStringSplitsIntoChunks) {
  const std::string text(600, 'x');
  ResourceRecord rr;
  rr.type = RecordType::kTxt;
  rr.rdata = make_txt_rdata(text);
  // 255 + 255 + 90 chunks plus 3 length bytes.
  EXPECT_EQ(rr.rdata.size(), 603u);
  EXPECT_EQ(rr.txt(), text);
}

TEST(Txt, EmptyString) {
  ResourceRecord rr;
  rr.type = RecordType::kTxt;
  rr.rdata = make_txt_rdata("");
  EXPECT_EQ(rr.txt(), "");
}

TEST(Txt, MalformedLengthYieldsNullopt) {
  ResourceRecord rr;
  rr.type = RecordType::kTxt;
  rr.rdata = {10, 'a'};  // claims 10 bytes, has 1
  EXPECT_EQ(rr.txt(), std::nullopt);
}

TEST(Txt, WrongTypeYieldsNullopt) {
  ResourceRecord rr;
  rr.type = RecordType::kA;
  rr.rdata = make_txt_rdata("x");
  EXPECT_EQ(rr.txt(), std::nullopt);
}

TEST(ARecord, WrongSizeYieldsNullopt) {
  ResourceRecord rr;
  rr.type = RecordType::kA;
  rr.rdata = {1, 2, 3};
  EXPECT_EQ(rr.a_addr(), std::nullopt);
}

// ---------------------------------------------------------------------
// DnsWireFuzz: Message::decode's "parse or throw" promise, checked the
// way MrtFuzz checks the MRT decoders. The seeds are encoded CHAOS
// hostname.bind TXT queries and responses (with NSID, with an empty
// identity, NSID alone) and an EDNS Client-Subnet query and response.
// Seeded mutants — a length or count field set to a boundary value,
// byte edits biased toward the values the decoder steers by (label
// lengths, compression pointers, record types), insertions, deletions
// and truncations — must decode or throw DnsError, and every accessor
// of each decoded record (txt(), a_addr(), the EDNS record and its
// Client-Subnet option, the server identity) must return or throw
// DnsError where it may.

/// A length or count field of a well-formed message: the four section
/// counts, every label length, every rdlength, and the character-string
/// lengths of TXT rdata and the option lengths of OPT rdata.
struct LengthField {
  std::size_t at;
  int width;  // bytes, big-endian
};

std::size_t u16_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  return std::size_t{b[at]} << 8 | b[at + 1];
}

std::vector<LengthField> length_fields(const std::vector<std::uint8_t>& b) {
  std::vector<LengthField> out;
  for (std::size_t at = 4; at < 12; at += 2) out.push_back({at, 2});
  std::size_t at = 12;
  const auto skip_name = [&] {
    while (b[at] != 0 && (b[at] & 0xc0) != 0xc0) {
      out.push_back({at, 1});
      at += 1 + b[at];
    }
    at += b[at] == 0 ? 1 : 2;  // root label or compression pointer
  };
  for (std::size_t q = 0; q < u16_at(b, 4); ++q) {
    skip_name();
    at += 4;  // type, class
  }
  const std::size_t records = u16_at(b, 6) + u16_at(b, 8) + u16_at(b, 10);
  for (std::size_t r = 0; r < records; ++r) {
    skip_name();
    const auto type = static_cast<RecordType>(u16_at(b, at));
    at += 8;  // type, class, ttl
    out.push_back({at, 2});
    const std::size_t end = at + 2 + u16_at(b, at);
    at += 2;
    if (type == RecordType::kTxt) {
      for (; at < end; at += 1 + b[at]) out.push_back({at, 1});
    } else if (type == RecordType::kOpt) {
      for (; at < end; at += 4 + u16_at(b, at + 2)) {
        out.push_back({at + 2, 2});
      }
    }
    at = end;
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> dns_fuzz_seeds() {
  const Message query = make_hostname_bind_query(0x2b1d);
  Message nsid_only = make_hostname_bind_response(query, "b2.ams.example");
  nsid_only.answers.clear();
  const netbase::Prefix subnet = *netbase::Prefix::parse("192.0.2.0/24");
  Message ecs_query = make_query(
      0x0ec5, Question{"www.example.com", RecordType::kA, RecordClass::kIn});
  set_edns(ecs_query, make_client_subnet_request(subnet));
  Message ecs_response = ecs_query;
  ecs_response.header.qr = true;
  ResourceRecord a;
  a.name = "www.example.com";
  a.type = RecordType::kA;
  a.ttl = 300;
  a.rdata = make_a_rdata(0xc6336401);
  ecs_response.answers.push_back(a);
  return {query.encode(),
          make_hostname_bind_response(query, "b1.lax.example").encode(),
          make_hostname_bind_response(query, "").encode(),
          nsid_only.encode(),
          ecs_query.encode(),
          ecs_response.encode()};
}

/// Calls @p f; a DnsError is the promised refusal, anything else thrown
/// is a test failure. Returns whether @p f returned.
template <typename F>
bool returns_or_throws_dns_error(F&& f, const std::string& what) {
  try {
    f();
    return true;
  } catch (const DnsError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw a non-DnsError: " << e.what();
  }
  return false;
}

/// Runs every accessor on @p m; returns the records it visited.
std::size_t exercise(const Message& m, const std::string& what) {
  std::size_t records = 0;
  for (const auto* section : {&m.answers, &m.authority, &m.additional}) {
    for (const ResourceRecord& rr : *section) {
      ++records;
      (void)rr.txt();
      (void)rr.a_addr();
      if (rr.type != RecordType::kOpt) continue;
      EdnsRecord edns;
      if (!returns_or_throws_dns_error([&] { edns = EdnsRecord::from_rr(rr); },
                                       what + " EdnsRecord::from_rr")) {
        continue;
      }
      for (const EdnsOption& opt : edns.options) {
        if (opt.code != kOptionClientSubnet) continue;
        returns_or_throws_dns_error(
            [&] { (void)ClientSubnet::decode(opt.data); },
            what + " ClientSubnet::decode");
      }
    }
  }
  (void)get_edns(m);
  (void)extract_server_identity(m);
  return records;
}

TEST(DnsWireFuzz, MutatedBytesDecodeOrThrow) {
  const std::vector<std::vector<std::uint8_t>> seeds = dns_fuzz_seeds();
  std::vector<std::vector<LengthField>> fields;
  // The unmutated seeds decode completely, every accessor included, so
  // the mutants start from bytes the decoder accepts.
  for (const auto& seed : seeds) {
    const Message m = Message::decode(seed);
    ASSERT_GE(exercise(m, "seed"), 1u);
    fields.push_back(length_fields(seed));
  }
  EXPECT_EQ(extract_server_identity(Message::decode(seeds[1])),
            "b1.lax.example");
  EXPECT_EQ(extract_server_identity(Message::decode(seeds[3])),
            "b2.ams.example");
  const auto edns = get_edns(Message::decode(seeds[4]));
  ASSERT_TRUE(edns.has_value());
  ASSERT_NE(edns->find(kOptionClientSubnet), nullptr);
  EXPECT_EQ(ClientSubnet::decode(edns->find(kOptionClientSubnet)->data)
                .prefix.to_string(),
            "192.0.2.0/24");
  EXPECT_EQ(Message::decode(seeds[5]).answers.at(0).a_addr(), 0xc6336401u);

  // Values the decoder branches on: label lengths around the 63-byte
  // limit, the reserved and pointer label types, record types (TXT 16,
  // OPT 41) and small counts.
  const std::uint8_t interesting[] = {0x00, 0x01, 0x02, 0x03, 0x0c, 0x10,
                                      0x29, 0x3f, 0x40, 0x7f, 0x80, 0xbf,
                                      0xc0, 0xc1, 0xfe, 0xff};
  std::uint64_t state = 0xd115;
  const auto draw = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::seconds(5);
  std::size_t mutants = 0;
  std::size_t decoded = 0;
  std::size_t records = 0;
  for (; mutants < 50'000; ++mutants) {
    if (mutants >= 2'000 && std::chrono::steady_clock::now() - start > budget) {
      break;
    }
    const std::size_t pick = draw(seeds.size());
    std::vector<std::uint8_t> bytes = seeds[pick];
    const std::uint64_t kind = draw(8);
    if (kind == 0) {
      bytes.resize(draw(bytes.size()));
    } else if (kind <= 3) {
      // One length or count field to a boundary: zero, one, one off its
      // value, the bytes left, or the top of its range.
      const LengthField f = fields[pick][draw(fields[pick].size())];
      const std::size_t value =
          f.width == 1 ? bytes[f.at] : u16_at(bytes, f.at);
      const std::size_t top = f.width == 1 ? 0xff : 0xffff;
      const std::size_t boundaries[] = {0,         1,   value - 1,
                                        value + 1, top, bytes.size() - f.at,
                                        top / 2,   top / 2 + 1};
      const std::size_t v = boundaries[draw(std::size(boundaries))] & top;
      if (f.width == 1) {
        bytes[f.at] = static_cast<std::uint8_t>(v);
      } else {
        bytes[f.at] = static_cast<std::uint8_t>(v >> 8);
        bytes[f.at + 1] = static_cast<std::uint8_t>(v);
      }
    } else {
      const std::uint64_t edits = 1 + draw(3);
      for (std::uint64_t e = 0; e < edits && !bytes.empty(); ++e) {
        const std::size_t at = draw(bytes.size());
        const std::uint8_t v =
            draw(2) == 0 ? interesting[draw(std::size(interesting))]
                         : static_cast<std::uint8_t>(draw(256));
        switch (draw(6)) {
          case 0:
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), v);
            break;
          case 1:
            bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
            break;
          default:
            bytes[at] = v;
        }
      }
    }
    const std::string label = "mutant " + std::to_string(mutants);
    Message m;
    if (!returns_or_throws_dns_error([&] { m = Message::decode(bytes); },
                                     label + " Message::decode")) {
      continue;
    }
    ++decoded;
    records += exercise(m, label);
    if (HasFailure()) return;
  }
  EXPECT_GE(mutants, 2'000u);
  EXPECT_GT(decoded, mutants / 10) << "mutants rarely decoded";
  EXPECT_GT(records, decoded) << "decoded mutants rarely held records";
}

}  // namespace
}  // namespace fenrir::dns
