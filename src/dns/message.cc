#include "dns/message.h"

namespace fenrir::dns {

namespace {

std::uint16_t flags_of(const Header& h) {
  std::uint16_t f = 0;
  if (h.qr) f |= 0x8000;
  f |= static_cast<std::uint16_t>((h.opcode & 0xf) << 11);
  if (h.aa) f |= 0x0400;
  if (h.tc) f |= 0x0200;
  if (h.rd) f |= 0x0100;
  if (h.ra) f |= 0x0080;
  f |= static_cast<std::uint16_t>(h.rcode) & 0xf;
  return f;
}

Header header_from(std::uint16_t id, std::uint16_t flags) {
  Header h;
  h.id = id;
  h.qr = flags & 0x8000;
  h.opcode = static_cast<std::uint8_t>((flags >> 11) & 0xf);
  h.aa = flags & 0x0400;
  h.tc = flags & 0x0200;
  h.rd = flags & 0x0100;
  h.ra = flags & 0x0080;
  h.rcode = static_cast<Rcode>(flags & 0xf);
  return h;
}

void encode_rr(Writer& w, NameCompressor& names,
               const ResourceRecord& rr) {
  names.encode(w, rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type));
  w.u16(rr.klass);
  w.u32(rr.ttl);
  if (rr.rdata.size() > 0xffff) throw DnsError("rdata too long");
  w.u16(static_cast<std::uint16_t>(rr.rdata.size()));
  w.raw(rr.rdata);
}

ResourceRecord decode_rr(Reader& r) {
  ResourceRecord rr;
  rr.name = decode_name(r);
  rr.type = static_cast<RecordType>(r.u16());
  rr.klass = r.u16();
  rr.ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  const auto data = r.raw(rdlength);
  rr.rdata.assign(data.begin(), data.end());
  return rr;
}

}  // namespace

std::optional<std::string> ResourceRecord::txt() const {
  if (type != RecordType::kTxt) return std::nullopt;
  std::string out;
  std::size_t i = 0;
  while (i < rdata.size()) {
    const std::size_t len = rdata[i++];
    if (i + len > rdata.size()) return std::nullopt;  // malformed
    out.append(reinterpret_cast<const char*>(rdata.data() + i), len);
    i += len;
  }
  return out;
}

std::optional<std::uint32_t> ResourceRecord::a_addr() const {
  if (type != RecordType::kA || rdata.size() != 4) return std::nullopt;
  return (std::uint32_t{rdata[0]} << 24) | (std::uint32_t{rdata[1]} << 16) |
         (std::uint32_t{rdata[2]} << 8) | std::uint32_t{rdata[3]};
}

std::vector<std::uint8_t> make_txt_rdata(std::string_view text) {
  std::vector<std::uint8_t> out;
  do {
    const std::size_t chunk = std::min<std::size_t>(text.size(), 255);
    out.push_back(static_cast<std::uint8_t>(chunk));
    out.insert(out.end(), text.begin(), text.begin() + chunk);
    text.remove_prefix(chunk);
  } while (!text.empty());
  return out;
}

std::vector<std::uint8_t> make_a_rdata(std::uint32_t addr) {
  return {static_cast<std::uint8_t>(addr >> 24),
          static_cast<std::uint8_t>(addr >> 16),
          static_cast<std::uint8_t>(addr >> 8),
          static_cast<std::uint8_t>(addr)};
}

std::vector<std::uint8_t> Message::encode() const {
  Writer w;
  NameCompressor names;  // per-message suffix table (RFC 1035 §4.1.4)
  w.u16(header.id);
  w.u16(flags_of(header));
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authority.size()));
  w.u16(static_cast<std::uint16_t>(additional.size()));
  for (const auto& q : questions) {
    names.encode(w, q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto& rr : answers) encode_rr(w, names, rr);
  for (const auto& rr : authority) encode_rr(w, names, rr);
  for (const auto& rr : additional) encode_rr(w, names, rr);
  return std::move(w).take();
}

Message Message::decode(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  Message m;
  const std::uint16_t id = r.u16();
  const std::uint16_t flags = r.u16();
  m.header = header_from(id, flags);
  m.header.qdcount = r.u16();
  m.header.ancount = r.u16();
  m.header.nscount = r.u16();
  m.header.arcount = r.u16();
  for (std::uint16_t i = 0; i < m.header.qdcount; ++i) {
    Question q;
    q.name = decode_name(r);
    q.type = static_cast<RecordType>(r.u16());
    q.klass = static_cast<RecordClass>(r.u16());
    m.questions.push_back(std::move(q));
  }
  for (std::uint16_t i = 0; i < m.header.ancount; ++i) {
    m.answers.push_back(decode_rr(r));
  }
  for (std::uint16_t i = 0; i < m.header.nscount; ++i) {
    m.authority.push_back(decode_rr(r));
  }
  for (std::uint16_t i = 0; i < m.header.arcount; ++i) {
    m.additional.push_back(decode_rr(r));
  }
  return m;
}

Message make_query(std::uint16_t id, Question q) {
  Message m;
  m.header.id = id;
  m.header.qr = false;
  m.header.rd = true;
  m.questions.push_back(std::move(q));
  return m;
}

}  // namespace fenrir::dns
