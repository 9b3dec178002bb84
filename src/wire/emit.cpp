#include "wire/emit.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "util/varint.hpp"
#include "wire/schema.hpp"

namespace ccvc::wire {

namespace {

// JSON string escaping: quotes, backslash, control characters.  Doc
// strings carry UTF-8 (§, →, —) which JSON accepts raw.
std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

std::string hex_tag(int tag) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "0x%02X", tag);
  return buf;
}

void append_field_json(std::ostringstream& os, const FieldDesc& f,
                       const char* indent) {
  os << indent << "{\"name\": \"" << json_escape(f.name) << "\", \"kind\": \""
     << to_string(f.kind) << "\"";
  if (f.kind != FieldKind::kNested && f.kind != FieldKind::kCrc32) {
    // Bounds up to 2^64−1 overflow JSON's double range, so they travel
    // as decimal strings.
    os << ", \"bound\": \"" << f.bound << "\"";
  }
  if (f.nested != nullptr) os << ", \"nested\": \"" << f.nested->name << "\"";
  if (f.conditional) os << ", \"conditional\": true";
  if (f.external_count) os << ", \"external_count\": true";
  if (f.note[0] != '\0') os << ", \"note\": \"" << json_escape(f.note) << "\"";
  os << "}";
}

// ---------------------------------------------------------------------------
// libFuzzer dictionaries.
// ---------------------------------------------------------------------------

std::string dict_escape(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  for (const std::uint8_t b : bytes) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\x%02x", b);
    out += buf;
  }
  return out;
}

std::vector<std::uint8_t> uvarint_bytes(std::uint64_t v) {
  util::ByteSink sink;
  sink.put_uvarint(v);
  return std::move(sink).take();
}

void append_message_entries(std::ostringstream& os, const MessageDesc& m) {
  if (m.tag != kNoTag) {
    os << "tag_" << m.name << "=\""
       << dict_escape({static_cast<std::uint8_t>(m.tag)}) << "\"\n";
  }
  for (std::size_t i = 0; i < m.num_fields; ++i) {
    const FieldDesc& f = m.fields[i];
    switch (f.kind) {
      case FieldKind::kU8:
        os << m.name << "_" << f.name << "_max=\""
           << dict_escape({static_cast<std::uint8_t>(f.bound)}) << "\"\n";
        if (f.bound < 0xff) {
          os << m.name << "_" << f.name << "_over=\""
             << dict_escape({static_cast<std::uint8_t>(f.bound + 1)})
             << "\"\n";
        }
        break;
      case FieldKind::kUvarint32:
      case FieldKind::kUvarint64:
        os << m.name << "_" << f.name << "_bound=\""
           << dict_escape(uvarint_bytes(f.bound)) << "\"\n";
        if (f.bound < kU64Max) {
          os << m.name << "_" << f.name << "_over=\""
             << dict_escape(uvarint_bytes(f.bound + 1)) << "\"\n";
        }
        break;
      case FieldKind::kString:
      case FieldKind::kBytes:
      case FieldKind::kRepeated:
        // Length/count claims right at and right past the declared
        // bound — the decode paths the bound checks guard.
        os << m.name << "_" << f.name << "_bound_claim=\""
           << dict_escape(uvarint_bytes(f.bound)) << "\"\n";
        if (f.bound < kU64Max) {
          os << m.name << "_" << f.name << "_over_claim=\""
             << dict_escape(uvarint_bytes(f.bound + 1)) << "\"\n";
        }
        break;
      case FieldKind::kRaw:
      case FieldKind::kNested:
      case FieldKind::kCrc32:
        break;  // no self-contained byte pattern
    }
  }
}

std::string dict_for(const char* harness,
                     const std::vector<const MessageDesc*>& messages) {
  std::ostringstream os;
  os << "# libFuzzer dictionary for fuzz/fuzz_" << harness << ".cpp.\n"
     << "# Generated by `ccvc_schema --emit-dicts` from src/wire/schema.hpp\n"
     << "# (see docs/schema.json); `ccvc_schema --check` fails if stale.\n";
  for (const MessageDesc* m : messages) append_message_entries(os, *m);
  return os.str();
}

}  // namespace

std::string schema_json() {
  std::ostringstream os;
  os << "{\n"
     << "  \"format\": \"ccvc-wire-schema/1\",\n"
     << "  \"source\": \"src/wire/schema.hpp\",\n"
     << "  \"messages\": [\n";
  for (std::size_t i = 0; i < kRegistrySize; ++i) {
    const MessageDesc& m = *kRegistry[i];
    os << "    {\n"
       << "      \"name\": \"" << json_escape(m.name) << "\",\n"
       << "      \"tag\": "
       << (m.tag == kNoTag ? std::string("null")
                           : "\"" + hex_tag(m.tag) + "\"")
       << ",\n"
       << "      \"doc\": \"" << json_escape(m.doc) << "\",\n"
       << "      \"section\": \"" << json_escape(m.section) << "\",\n"
       << "      \"fields\": [\n";
    for (std::size_t k = 0; k < m.num_fields; ++k) {
      append_field_json(os, m.fields[k], "        ");
      os << (k + 1 < m.num_fields ? ",\n" : "\n");
    }
    os << "      ]\n"
       << "    }" << (i + 1 < kRegistrySize ? ",\n" : "\n");
  }
  os << "  ]\n"
     << "}\n";
  return os.str();
}

std::string doc_table() {
  std::ostringstream os;
  os << "| tag | name | direction / purpose | layout |\n"
     << "|---|---|---|---|\n";
  // Tagged messages in tag order (the registry keeps them sorted, but
  // emission re-sorts so the doc never depends on registry layout).
  for (int tag = 0; tag <= 0xff; ++tag) {
    for (const MessageDesc* m : kRegistry) {
      if (m->tag != tag) continue;
      os << "| `" << hex_tag(tag) << "` | " << m->name << " | " << m->doc
         << " | " << m->section << " |\n";
    }
  }
  return os.str();
}

std::vector<DictFile> fuzz_dicts() {
  std::vector<DictFile> dicts;

  // fuzz_varint has no message structure; its dictionary is the varint
  // length-boundary encodings every other format is built from.
  {
    std::ostringstream os;
    os << "# libFuzzer dictionary for fuzz/fuzz_varint.cpp.\n"
       << "# Generated by `ccvc_schema --emit-dicts` from "
          "src/wire/schema.hpp\n"
       << "# (see docs/schema.json); `ccvc_schema --check` fails if "
          "stale.\n";
    const std::uint64_t boundaries[] = {
        0,
        0x7f,
        0x80,
        (1ull << 14) - 1,
        1ull << 14,
        kU32Max,
        kU32Max + 1,
        kU64Max,
    };
    const char* names[] = {"zero",    "max1",     "min2",  "max2",
                           "min3",    "u32max",   "u32over", "u64max"};
    for (std::size_t i = 0; i < 8; ++i) {
      os << "uvarint_" << names[i] << "=\""
         << dict_escape(uvarint_bytes(boundaries[i])) << "\"\n";
    }
    // The 10th-byte overflow pattern the decoder must reject.
    os << "uvarint_overflow=\""
       << dict_escape({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                       0x02})
       << "\"\n";
    dicts.push_back({"varint.dict", os.str()});
  }

  dicts.push_back(
      {"compressed_sv.dict", dict_for("compressed_sv", {&kCompressedSv})});
  dicts.push_back(
      {"message.dict",
       dict_for("message",
                {&kClientMsg, &kCenterMsg, &kMeshMsg, &kLeaveMsg, &kOpId,
                 &kCompressedSv, &kVersionVector, &kVvComponent, &kSkTimestamp,
                 &kSkEntry, &kWireOpList, &kWirePrimOp})});
  dicts.push_back(
      {"frame.dict",
       dict_for("frame", {&kDataFrame, &kAckFrame, &kSackFrame, &kSackRange})});
  dicts.push_back(
      {"sack.dict", dict_for("sack", {&kSackFrame, &kSackRange})});
  dicts.push_back(
      {"batch.dict", dict_for("batch", {&kEgressBatch, &kBatchEntry})});
  dicts.push_back(
      {"checkpoint.dict",
       dict_for("checkpoint",
                {&kNotifierBundle, &kNotifierCheckpoint, &kClientCheckpoint,
                 &kSessionCheckpoint, &kLinkState, &kLinkEntry,
                 &kNotifierHbEntry, &kClientHbEntry, &kClientPending,
                 &kBridgeQueue, &kBridgeEntry, &kCounter, &kActiveFlag,
                 &kBlob, &kCkptOpList, &kCkptPrimOp, &kOpId, &kCompressedSv,
                 &kVersionVector, &kReplicaCheckpoint, &kReplicaWalEntry})});
  return dicts;
}

}  // namespace ccvc::wire
