#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "checksum.hpp"
#include "core/xml2wire.hpp"
#include "pbio/synth.hpp"
#include "pbio/wire.hpp"
#include "util/bytes.hpp"

namespace omfbench {

using omf::Buffer;
using omf::arch::Profile;
using omf::pbio::ArrayKind;
using omf::pbio::DynamicRecord;
using omf::pbio::FieldClass;
using omf::pbio::Format;
using omf::pbio::FormatHandle;

namespace {

std::string element(const std::string& name, const std::string& type,
                    const std::string& extra = "") {
  return "    <xsd:element name=\"" + name + "\" type=\"" + type + "\"" +
         (extra.empty() ? "" : " " + extra) + " />\n";
}

std::string complex_type(const std::string& name, const std::string& body) {
  return "  <xsd:complexType name=\"" + name + "\">\n" + body +
         "  </xsd:complexType>\n";
}

std::string document(const std::string& types) {
  return "<?xml version=\"1.0\"?>\n"
         "<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n" +
         types + "</xsd:schema>\n";
}

const std::string kSeq = element("seq", "xsd:unsignedLong");

std::string asdoff_b_type() {
  return complex_type(
      "ASDOffEventB",
      kSeq + element("cntrId", "xsd:string") + element("arln", "xsd:string") +
          element("fltNum", "xsd:int") + element("equip", "xsd:string") +
          element("org", "xsd:string") + element("dest", "xsd:string") +
          element("off", "xsd:unsignedLong", "minOccurs=\"5\" maxOccurs=\"5\"") +
          element("eta_count", "xsd:int") +
          element("eta", "xsd:unsignedLong",
                  "minOccurs=\"0\" maxOccurs=\"eta_count\""));
}

std::string random_text(SplitMix& rng) {
  static constexpr char kChars[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string s(1 + rng.below(16), ' ');
  for (char& c : s) c = kChars[rng.below(sizeof(kChars) - 1)];
  return s;
}

/// Values fit the narrowest sender: longs are 4 bytes on the 32-bit
/// profiles, so nothing wider than 32 bits is generated.
std::int64_t int_value(SplitMix& rng, std::size_t size) {
  unsigned bits = static_cast<unsigned>(std::min<std::size_t>(size * 8, 32));
  std::uint64_t span = std::uint64_t{1} << bits;
  return static_cast<std::int64_t>(rng.below(span)) -
         static_cast<std::int64_t>(span / 2);
}

std::uint64_t uint_value(SplitMix& rng, std::size_t size) {
  unsigned bits = static_cast<unsigned>(std::min<std::size_t>(size * 8, 32));
  return rng.below(std::uint64_t{1} << bits);
}

double float_value(SplitMix& rng, std::size_t size) {
  double v = rng.uniform() * 2e6 - 1e6;
  return size == 4 ? static_cast<double>(static_cast<float>(v)) : v;
}

/// Fills every field of `rec` with seeded values. A dynamic array named
/// "values" gets `values_len` elements; other dynamic arrays 0-8.
void fill(DynamicRecord rec, SplitMix& rng, std::size_t values_len) {
  const Format& f = rec.format();
  std::vector<bool> is_count(f.fields().size(), false);
  for (const auto& field : f.fields()) {
    if (field.type.array == ArrayKind::kDynamic) {
      is_count[field.count_field_index] = true;
    }
  }
  for (std::size_t i = 0; i < f.fields().size(); ++i) {
    const auto& field = f.fields()[i];
    if (is_count[i]) continue;  // set by the array setters
    if (field.name == "seq") {
      rec.set_uint("seq", 0);
      continue;
    }
    std::size_t n = 1;
    if (field.type.array == ArrayKind::kStatic) n = field.type.static_count;
    if (field.type.array == ArrayKind::kDynamic) {
      n = field.name == "values" ? values_len : rng.below(9);
    }
    bool scalar = field.type.array == ArrayKind::kNone;
    switch (field.type.cls) {
      case FieldClass::kNested:
        if (field.type.array == ArrayKind::kDynamic) {
          rec.resize_nested_array(field.name, n);
        }
        for (std::size_t k = 0; k < n; ++k) {
          fill(rec.nested(field.name, k), rng, values_len);
        }
        break;
      case FieldClass::kString:
        rec.set_string(field.name, random_text(rng));
        break;
      case FieldClass::kInteger: {
        std::vector<std::int64_t> v(n);
        for (auto& x : v) x = int_value(rng, field.size);
        scalar ? rec.set_int(field.name, v[0]) : rec.set_int_array(field.name, v);
        break;
      }
      case FieldClass::kUnsigned: {
        std::vector<std::uint64_t> v(n);
        for (auto& x : v) x = uint_value(rng, field.size);
        scalar ? rec.set_uint(field.name, v[0])
               : rec.set_uint_array(field.name, v);
        break;
      }
      case FieldClass::kFloat: {
        std::vector<double> v(n);
        for (auto& x : v) x = float_value(rng, field.size);
        scalar ? rec.set_float(field.name, v[0])
               : rec.set_float_array(field.name, v);
        break;
      }
      case FieldClass::kChar: {
        std::string s(n, ' ');
        for (char& c : s) c = static_cast<char>('a' + rng.below(26));
        scalar ? rec.set_char(field.name, s[0])
               : rec.set_char_array(field.name, s);
        break;
      }
    }
  }
}

/// `length` indices in [0, n), each appearing equally often (up to one),
/// in seeded order: every seed sees the same mix, in a different sequence.
std::vector<std::uint32_t> balanced_order(SplitMix& rng, std::size_t n,
                                          std::size_t length) {
  std::vector<std::uint32_t> order(length);
  for (std::size_t i = 0; i < length; ++i) {
    order[i] = static_cast<std::uint32_t>(i % n);
  }
  for (std::size_t i = length; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// Stratified log-uniform size: the i-th of n strata of [lo, hi].
std::size_t stratified_size(SplitMix& rng, double lo, double hi,
                            std::size_t i, std::size_t n) {
  double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
  return static_cast<std::size_t>(std::lround(lo * std::pow(hi / lo, u)));
}

/// Assembles a corpus: registers its schemas natively and for each sender,
/// and turns seeded records into the bytes each sender would transmit.
class Builder {
public:
  Builder(Corpus& corpus, SplitMix& rng, bool keep_records)
      : corpus_(corpus), rng_(rng), keep_records_(keep_records) {
    native_ = register_schemas(registry_, corpus_, omf::arch::native());
  }

  std::uint32_t add_type(std::uint32_t schema, const Profile& sender) {
    corpus_.types.push_back({schema, &sender});
    return static_cast<std::uint32_t>(corpus_.types.size() - 1);
  }

  void add_message(std::uint32_t type, std::size_t values_len) {
    const MessageType& t = corpus_.types[type];
    const FormatHandle& native = native_[t.schema];
    const FormatHandle& sender = sender_formats(*t.sender)[t.schema];
    DynamicRecord rec(native);
    fill(rec, rng_, values_len);
    Buffer native_wire = rec.encode();
    Message m;
    m.type = type;
    m.wire = sender->id() == native->id()
                 ? native_wire
                 : omf::pbio::synthesize_wire(*sender, rec);
    m.checksum = record_checksum(*native, rec.data());
    m.payload_bytes = native_wire.size() - omf::pbio::WireHeader::kSize;
    corpus_.messages.push_back(std::move(m));
    if (keep_records_) corpus_.records.push_back(rec);
  }

private:
  const std::vector<FormatHandle>& sender_formats(const Profile& p) {
    auto it = by_sender_.find(&p);
    if (it == by_sender_.end()) {
      it = by_sender_.emplace(&p, register_schemas(registry_, corpus_, p))
               .first;
    }
    return it->second;
  }

  Corpus& corpus_;
  SplitMix& rng_;
  bool keep_records_;
  omf::pbio::FormatRegistry registry_;
  std::vector<FormatHandle> native_;
  std::map<const Profile*, std::vector<FormatHandle>> by_sender_;
};

std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

Schema payload_schema() {
  return {"Payload",
          document(complex_type(
              "Payload", kSeq + element("tag", "xsd:string") +
                             element("count", "xsd:int") +
                             element("values", "xsd:double",
                                     "maxOccurs=\"count\"")))};
}

Schema structure_a_schema() {
  return {"ASDOffEvent",
          document(complex_type(
              "ASDOffEvent",
              kSeq + element("cntrId", "xsd:string") +
                  element("arln", "xsd:string") + element("fltNum", "xsd:int") +
                  element("equip", "xsd:string") +
                  element("org", "xsd:string") + element("dest", "xsd:string") +
                  element("off", "xsd:unsignedLong") +
                  element("eta", "xsd:unsignedLong")))};
}

Schema structure_b_schema() {
  return {"ASDOffEventB", document(asdoff_b_type())};
}

Schema structure_c_schema() {
  return {"threeASDOffs",
          document(asdoff_b_type() +
                   complex_type("threeASDOffs",
                                kSeq + element("one", "ASDOffEventB") +
                                    element("bart", "xsd:double") +
                                    element("two", "ASDOffEventB") +
                                    element("lisa", "xsd:double") +
                                    element("three", "ASDOffEventB")))};
}

Schema synthetic_schema(std::uint64_t seed, int index) {
  SplitMix rng(seed * 0x2545F4914F6CDD1Dull + static_cast<std::uint64_t>(index));
  std::string name = "Synth" + std::to_string(index);
  std::string body = kSeq;
  // The mix of field kinds is fixed per index; the seed picks their order.
  const std::size_t fields = 4 + 2 * static_cast<std::size_t>(index);
  std::size_t i = 0;
  for (std::uint32_t kind : balanced_order(rng, 8, fields)) {
    std::string f = "f" + std::to_string(i++);
    switch (kind) {
      case 0: body += element(f, "xsd:int"); break;
      case 1: body += element(f, "xsd:unsignedLong"); break;
      case 2: body += element(f, "xsd:double"); break;
      case 3: body += element(f, "xsd:float"); break;
      case 4: body += element(f, "xsd:short"); break;
      case 5: body += element(f, "xsd:string"); break;
      case 6:
        body += element(f, "xsd:double", "minOccurs=\"4\" maxOccurs=\"4\"");
        break;
      default:
        body += element(f + "_n", "xsd:int");
        body += element(f, "xsd:double",
                        "minOccurs=\"0\" maxOccurs=\"" + f + "_n\"");
        break;
    }
  }
  return {name, document(complex_type(name, body))};
}

const std::vector<const Profile*>& hetero_senders() {
  static const std::vector<const Profile*> kSenders = {
      &omf::arch::sparc64(), &omf::arch::sparc32(), &omf::arch::i386(),
      &omf::arch::x86_64()};
  return kSenders;
}

std::vector<FormatHandle> register_schemas(omf::pbio::FormatRegistry& registry,
                                           const Corpus& corpus,
                                           const Profile& profile) {
  omf::core::Xml2Wire x(registry, profile);
  std::vector<FormatHandle> top;
  for (const Schema& s : corpus.schemas) {
    FormatHandle found;
    for (const FormatHandle& f : x.register_text(s.xsd)) {
      if (f->name() == s.type) found = f;
    }
    top.push_back(found);
  }
  return top;
}

void stamp_seq(Buffer& wire, const Format& sender_format, std::uint64_t seq) {
  const auto* field = sender_format.field_named("seq");
  std::uint8_t* at = wire.data() + wire.data()[3] + field->offset;
  auto order = sender_format.profile().byte_order;
  if (field->size == 4) {
    omf::store_order<std::uint32_t>(at, static_cast<std::uint32_t>(seq),
                                    order);
  } else {
    omf::store_order<std::uint64_t>(at, seq, order);
  }
}

std::uint64_t Corpus::digest() const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const Schema& s : schemas) {
    h = fnv(h, s.type.data(), s.type.size());
    h = fnv(h, s.xsd.data(), s.xsd.size());
  }
  for (const MessageType& t : types) {
    h = fnv(h, &t.schema, sizeof t.schema);
    h = fnv(h, t.sender->name.data(), t.sender->name.size());
  }
  for (const Message& m : messages) {
    h = fnv(h, m.wire.data(), m.wire.size());
    h = fnv(h, &m.type, sizeof m.type);
    h = fnv(h, &m.checksum, sizeof m.checksum);
  }
  return fnv(h, order.data(), order.size() * sizeof(std::uint32_t));
}

Corpus rpc_small_corpus(std::uint64_t seed) {
  SplitMix rng(seed);
  Corpus c;
  c.schemas = {payload_schema(), structure_a_schema()};
  Builder b(c, rng, /*keep_records=*/true);
  std::uint32_t payload = b.add_type(0, omf::arch::native());
  std::uint32_t asd = b.add_type(1, omf::arch::native());
  constexpr std::uint32_t kEach = 64;
  for (std::uint32_t i = 0; i < kEach; ++i) {
    b.add_message(payload, 16);
    b.add_message(asd, 0);
    c.order.push_back(2 * i);
    c.order.push_back(2 * i + 1);
  }
  return c;
}

Corpus decode_hetero_corpus(std::uint64_t seed) {
  SplitMix rng(seed);
  Corpus c;
  c.schemas = {payload_schema(), structure_a_schema(), structure_b_schema(),
               structure_c_schema()};
  Builder b(c, rng, false);
  std::vector<std::vector<std::uint32_t>> by_type;
  for (const Profile* sender : hetero_senders()) {
    for (std::uint32_t s = 0; s < c.schemas.size(); ++s) {
      std::uint32_t t = b.add_type(s, *sender);
      by_type.emplace_back();
      std::size_t n = s == 0 ? 48 : 16;
      for (std::size_t i = 0; i < n; ++i) {
        by_type[t].push_back(static_cast<std::uint32_t>(c.messages.size()));
        b.add_message(t, s == 0 ? stratified_size(rng, 16, 4096, i, n) : 0);
      }
    }
  }
  // 4096 runs, each of one type and 1-32 of its messages, so a receiver
  // grouping consecutive same-format messages sees runs of that length.
  constexpr std::size_t kRuns = 4096;
  auto types = balanced_order(rng, by_type.size(), kRuns);
  auto lengths = balanced_order(rng, 32, kRuns);
  for (std::size_t run = 0; run < kRuns; ++run) {
    const auto& pool = by_type[types[run]];
    for (std::size_t k = 0; k <= lengths[run]; ++k) {
      c.order.push_back(pool[rng.below(pool.size())]);
    }
  }
  return c;
}

Corpus join_churn_corpus(std::uint64_t seed) {
  SplitMix rng(seed);
  Corpus c;
  c.schemas = {structure_a_schema(), structure_b_schema(),
               structure_c_schema(), payload_schema()};
  for (int i = 0; i < 4; ++i) c.schemas.push_back(synthetic_schema(seed, i));
  Builder b(c, rng, false);
  for (const Profile* sender : hetero_senders()) {
    for (std::uint32_t s = 0; s < c.schemas.size(); ++s) {
      std::uint32_t t = b.add_type(s, *sender);
      for (std::size_t i = 0; i < 4; ++i) {
        b.add_message(t, stratified_size(rng, 16, 256, i, 4));
      }
    }
  }
  c.order = balanced_order(rng, c.types.size(), 4096);
  return c;
}

Corpus pubsub_open_corpus(std::uint64_t seed) {
  SplitMix rng(seed);
  Corpus c;
  c.schemas = {payload_schema()};
  Builder b(c, rng, false);
  for (const Profile* sender : {&omf::arch::native(), &omf::arch::sparc64()}) {
    std::uint32_t t = b.add_type(0, *sender);
    constexpr std::size_t kPerSender = 128;
    for (std::size_t i = 0; i < kPerSender; ++i) {
      b.add_message(t, stratified_size(rng, 16, 1024, i, kPerSender));
    }
  }
  c.order = balanced_order(rng, c.messages.size(), 4096);
  return c;
}

}  // namespace omfbench
