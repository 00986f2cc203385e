#include "bgp/mrt.h"

#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <sstream>
#include <string>

#include "bgp/service.h"
#include "bgp/topology_gen.h"

namespace fenrir::bgp {
namespace {

MrtRecord sample_record() {
  UpdateMessage m;
  m.as_path = {65001, 3356};
  m.next_hop = netbase::Ipv4Addr(198, 51, 100, 1);
  m.nlri = {*netbase::Prefix::parse("199.9.14.0/24")};

  MrtRecord r;
  r.timestamp = core::from_date(2023, 3, 1) + 12 * core::kHour;
  r.peer_asn = 65001;
  r.local_asn = 6447;
  r.peer_addr = netbase::Ipv4Addr(10, 1, 2, 3);
  r.local_addr = netbase::Ipv4Addr(128, 223, 51, 102);
  r.message = m.encode();
  return r;
}

TEST(Mrt, SingleRecordRoundTrip) {
  const MrtRecord r = sample_record();
  const auto bytes = r.encode();
  const auto records = MrtReader::read_all(bytes);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].timestamp, r.timestamp);
  EXPECT_EQ(records[0].peer_asn, 65001u);
  EXPECT_EQ(records[0].local_asn, 6447u);
  EXPECT_EQ(records[0].peer_addr, r.peer_addr);
  EXPECT_EQ(records[0].local_addr, r.local_addr);
  // The wrapped BGP message survives exactly.
  const UpdateMessage m = UpdateMessage::decode(records[0].message);
  EXPECT_EQ(m.as_path, (std::vector<std::uint32_t>{65001, 3356}));
}

TEST(Mrt, StreamOfRecords) {
  std::ostringstream out;
  MrtWriter writer(out);
  for (int i = 0; i < 5; ++i) {
    MrtRecord r = sample_record();
    r.timestamp += i * 60;
    writer.write(r);
  }
  const std::string s = out.str();
  const auto records = MrtReader::read_all(std::vector<std::uint8_t>(
      s.begin(), s.end()));
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].timestamp, sample_record().timestamp + i * 60);
  }
}

TEST(Mrt, RejectsTruncationAndForeignRecords) {
  auto bytes = sample_record().encode();
  {
    auto cut = bytes;
    cut.resize(cut.size() - 1);
    EXPECT_THROW(MrtReader::read_all(cut), BgpError);
  }
  {
    auto bad = bytes;
    bad[4] = 0xff;  // type
    EXPECT_THROW(MrtReader::read_all(bad), BgpError);
  }
  {
    auto bad = bytes;
    // Body starts at 12: peerAS(4) localAS(4) ifindex(2), AFI at 22-23.
    bad[23] = 2;  // AFI = IPv6
    EXPECT_THROW(MrtReader::read_all(bad), BgpError);
  }
  {
    // Header only, truncated body declaration.
    std::vector<std::uint8_t> tiny(bytes.begin(), bytes.begin() + 12);
    EXPECT_THROW(MrtReader::read_all(tiny), BgpError);
  }
}

TEST(Mrt, EmptyArchiveIsEmpty) {
  EXPECT_TRUE(MrtReader::read_all({}).empty());
}

TEST(Mrt, PeerIndexTableRoundTrip) {
  PeerIndexTable table;
  table.collector_id = netbase::Ipv4Addr(128, 223, 51, 102);
  table.view_name = "fenrir";
  for (std::uint32_t i = 0; i < 5; ++i) {
    table.peers.push_back(PeerIndexTable::Peer{
        netbase::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i + 1)),
        netbase::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(i + 1)),
        65000 + i});
  }
  const MrtFrame frame = make_peer_index_frame(1234, table);
  EXPECT_EQ(frame.type, kMrtTypeTableDumpV2);
  const PeerIndexTable d = peer_index_from_frame(frame);
  EXPECT_EQ(d.collector_id, table.collector_id);
  EXPECT_EQ(d.view_name, "fenrir");
  ASSERT_EQ(d.peers.size(), 5u);
  EXPECT_EQ(d.peers[3].asn, 65003u);
  EXPECT_EQ(d.peers[3].addr, table.peers[3].addr);
}

TEST(Mrt, RibPrefixRoundTrip) {
  RibPrefix rib;
  rib.sequence = 7;
  rib.prefix = *netbase::Prefix::parse("199.9.14.0/24");
  for (std::uint16_t i = 0; i < 3; ++i) {
    RibPrefix::Entry e;
    e.peer_index = i;
    e.originated = core::from_date(2023, 3, 1);
    e.attributes.as_path = {65000u + i, 3356, 397196};
    e.attributes.next_hop = netbase::Ipv4Addr(10, 0, 1, 1);
    rib.entries.push_back(e);
  }
  const MrtFrame frame = make_rib_frame(999, rib);
  const RibPrefix d = rib_from_frame(frame);
  EXPECT_EQ(d.sequence, 7u);
  EXPECT_EQ(d.prefix.to_string(), "199.9.14.0/24");
  ASSERT_EQ(d.entries.size(), 3u);
  EXPECT_EQ(d.entries[2].attributes.as_path,
            (std::vector<std::uint32_t>{65002, 3356, 397196}));
  EXPECT_EQ(d.entries[2].originated, core::from_date(2023, 3, 1));
}

TEST(Mrt, FrameDecodersRejectWrongTypes) {
  const MrtFrame bgp4mp = make_bgp4mp_frame(sample_record());
  EXPECT_THROW(peer_index_from_frame(bgp4mp), BgpError);
  EXPECT_THROW(rib_from_frame(bgp4mp), BgpError);
  const MrtFrame peer_frame = make_peer_index_frame(0, PeerIndexTable{});
  EXPECT_THROW(bgp4mp_from_frame(peer_frame), BgpError);
}

TEST(Mrt, RibDumpOfALiveCollector) {
  TopologyParams p;
  p.tier1_count = 3;
  p.tier2_count = 8;
  p.stub_count = 80;
  p.seed = 62;
  Topology topo = generate_topology(p);
  AnycastService svc(*netbase::Prefix::parse("199.9.14.0/24"));
  svc.add_site(0, topo.stubs[0]);
  const std::vector<AsIndex> peers{topo.stubs[5], topo.stubs[60]};
  RouteCollector collector(&topo.graph, peers,
                           *netbase::Prefix::parse("199.9.14.0/24"));
  collector.poll(compute_routes(topo.graph, svc.active_origins()));

  std::ostringstream archive;
  MrtWriter writer(archive);
  writer.write_rib_dump(core::from_date(2023, 3, 1), topo.graph, collector,
                        *netbase::Prefix::parse("199.9.14.0/24"));

  const std::string s = archive.str();
  const auto frames = MrtReader::read_frames(
      std::vector<std::uint8_t>(s.begin(), s.end()));
  ASSERT_EQ(frames.size(), 2u);
  const PeerIndexTable table = peer_index_from_frame(frames[0]);
  ASSERT_EQ(table.peers.size(), 2u);
  const RibPrefix rib = rib_from_frame(frames[1]);
  EXPECT_EQ(rib.prefix.to_string(), "199.9.14.0/24");
  ASSERT_EQ(rib.entries.size(), 2u);  // both peers hold a route
  for (const auto& entry : rib.entries) {
    // Each entry's path starts at that peer's ASN and reaches the origin.
    const auto& peer = table.peers.at(entry.peer_index);
    ASSERT_FALSE(entry.attributes.as_path.empty());
    EXPECT_EQ(entry.attributes.as_path.front(), peer.asn);
    EXPECT_EQ(entry.attributes.as_path.back(),
              topo.graph.node(topo.stubs[0]).asn.value());
  }
}

TEST(Mrt, CollectorBatchArchiveRoundTrip) {
  // simulate -> collect -> archive -> re-read: peer attribution and the
  // update payloads survive the full loop.
  TopologyParams p;
  p.tier1_count = 3;
  p.tier2_count = 8;
  p.stub_count = 80;
  p.seed = 61;
  Topology topo = generate_topology(p);
  AnycastService svc(*netbase::Prefix::parse("199.9.14.0/24"));
  svc.add_site(0, topo.stubs[0]);
  svc.add_site(1, topo.stubs[40]);
  const std::vector<AsIndex> peers{topo.stubs[5], topo.stubs[60],
                                   topo.tier2[1]};
  RouteCollector collector(&topo.graph, peers,
                           *netbase::Prefix::parse("199.9.14.0/24"));

  std::ostringstream archive;
  MrtWriter writer(archive);
  const core::TimePoint t0 = core::from_date(2023, 3, 1);
  writer.write_batch(
      t0, topo.graph,
      collector.poll(compute_routes(topo.graph, svc.active_origins())));
  svc.set_drained(0, true);
  writer.write_batch(
      t0 + core::kHour, topo.graph,
      collector.poll(compute_routes(topo.graph, svc.active_origins())));

  const std::string s = archive.str();
  const auto records = MrtReader::read_all(std::vector<std::uint8_t>(
      s.begin(), s.end()));
  ASSERT_GE(records.size(), peers.size());  // initial announce + drain churn
  for (const auto& r : records) {
    EXPECT_EQ(r.local_asn, 6447u);
    bool known_peer = false;
    for (const AsIndex peer : peers) {
      known_peer |= (topo.graph.node(peer).asn.value() == r.peer_asn);
    }
    EXPECT_TRUE(known_peer);
    EXPECT_NO_THROW(UpdateMessage::decode(r.message));
  }
  // Two batches, two distinct timestamps.
  EXPECT_EQ(records.front().timestamp, t0);
  EXPECT_EQ(records.back().timestamp, t0 + core::kHour);
}

// ---------------------------------------------------------------------
// MrtFuzz: the MRT and BGP UPDATE decoders' "parse or throw" promise,
// checked the way DatasetIoFuzz checks the dataset decoder. The input is
// an MrtWriter archive holding a collector's BGP4MP batch (announcements
// and a drain's churn) and a TABLE_DUMP_V2 RIB dump (PEER_INDEX_TABLE +
// RIB_IPV4_UNICAST). Seeded mutants — byte edits biased toward the
// values the decoders steer by (lengths, counts, flags, prefix lengths),
// insertions, deletions and truncations — are read frame by frame:
// read_frames, every frame decoder and, for each decoded BGP4MP record,
// UpdateMessage::decode must return a value or throw BgpError.

std::vector<std::uint8_t> fuzz_archive() {
  TopologyParams p;
  p.tier1_count = 3;
  p.tier2_count = 8;
  p.stub_count = 80;
  p.seed = 63;
  Topology topo = generate_topology(p);
  const netbase::Prefix prefix = *netbase::Prefix::parse("199.9.14.0/24");
  AnycastService svc(prefix);
  svc.add_site(0, topo.stubs[0]);
  svc.add_site(1, topo.stubs[40]);
  const std::vector<AsIndex> peers{topo.stubs[5], topo.stubs[60],
                                   topo.tier2[1]};
  RouteCollector collector(&topo.graph, peers, prefix);
  std::ostringstream archive;
  MrtWriter writer(archive);
  const core::TimePoint t0 = core::from_date(2023, 3, 1);
  writer.write_batch(
      t0, topo.graph,
      collector.poll(compute_routes(topo.graph, svc.active_origins())));
  svc.set_drained(0, true);
  writer.write_batch(
      t0 + core::kHour, topo.graph,
      collector.poll(compute_routes(topo.graph, svc.active_origins())));
  writer.write_rib_dump(t0 + 2 * core::kHour, topo.graph, collector, prefix);
  const std::string s = archive.str();
  return {s.begin(), s.end()};
}

/// Calls @p decode; a BgpError is the promised refusal, anything else
/// thrown is a test failure. Returns whether @p decode returned.
template <typename F>
bool parses_or_throws(F&& decode, const std::string& what) {
  try {
    decode();
    return true;
  } catch (const BgpError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw a non-BgpError: " << e.what();
  }
  return false;
}

TEST(MrtFuzz, MutatedBytesParseOrThrow) {
  const std::vector<std::uint8_t> archive = fuzz_archive();
  // The unmutated archive decodes completely: both frame families and
  // every wrapped UPDATE, so the mutants start from bytes every decoder
  // accepts.
  {
    const std::vector<MrtFrame> frames = MrtReader::read_frames(archive);
    std::size_t bgp4mp = 0;
    for (const MrtFrame& f : frames) {
      if (f.type == kMrtTypeBgp4mp) {
        ++bgp4mp;
        (void)UpdateMessage::decode(bgp4mp_from_frame(f).message);
      }
    }
    ASSERT_GE(bgp4mp, 3u);
    ASSERT_EQ(peer_index_from_frame(frames[frames.size() - 2]).peers.size(),
              3u);
    ASSERT_FALSE(rib_from_frame(frames.back()).entries.empty());
  }
  // Values the decoders branch on: zero and small lengths, AFI 1/2, the
  // peer-type and extended-length flag bits, attribute type codes,
  // prefix lengths around 32, and the marker byte.
  const std::uint8_t interesting[] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x0c,
                                      0x10, 0x18, 0x20, 0x21, 0x40, 0x50,
                                      0x7f, 0x80, 0xfe, 0xff};
  std::uint64_t state = 0x3e7f;
  const auto draw = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::seconds(5);
  std::size_t mutants = 0;
  std::size_t frames_decoded = 0;
  for (; mutants < 20'000; ++mutants) {
    if (mutants >= 500 && std::chrono::steady_clock::now() - start > budget) {
      break;
    }
    std::vector<std::uint8_t> bytes = archive;
    if (draw(16) == 0) {
      bytes.resize(draw(bytes.size()));
    } else {
      const std::uint64_t edits = 1 + draw(4);
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
    std::vector<MrtFrame> frames;
    if (!parses_or_throws([&] { frames = MrtReader::read_frames(bytes); },
                          label + " read_frames")) {
      continue;
    }
    for (std::size_t k = 0; k < frames.size(); ++k) {
      const MrtFrame& f = frames[k];
      const std::string where = label + " frame " + std::to_string(k);
      MrtRecord record;
      if (parses_or_throws([&] { record = bgp4mp_from_frame(f); },
                           where + " bgp4mp_from_frame")) {
        ++frames_decoded;
        parses_or_throws([&] { (void)UpdateMessage::decode(record.message); },
                         where + " UpdateMessage::decode");
      }
      frames_decoded += parses_or_throws(
          [&] { (void)peer_index_from_frame(f); },
          where + " peer_index_from_frame");
      frames_decoded += parses_or_throws([&] { (void)rib_from_frame(f); },
                                         where + " rib_from_frame");
    }
    if (HasFailure()) return;
  }
  EXPECT_GE(mutants, 500u);
  EXPECT_GT(frames_decoded, mutants) << "mutants rarely reached a decoder";
}

}  // namespace
}  // namespace fenrir::bgp
