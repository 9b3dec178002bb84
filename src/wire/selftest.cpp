#include "wire/selftest.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/varint.hpp"
#include "wire/engine.hpp"
#include "wire/schema.hpp"

namespace ccvc::wire {

namespace {

class Checker {
 public:
  SelftestResult finish() { return std::move(result_); }

  void expect(bool cond, const MessageDesc& m, const FieldDesc& f,
              const char* what) {
    ++result_.checks;
    if (cond) return;
    std::ostringstream os;
    os << m.name << "." << f.name << ": " << what;
    result_.failures.push_back(os.str());
  }

  // -- per-kind probes -----------------------------------------------------

  void uvarint_field(const MessageDesc& m, const FieldDesc& f) {
    std::uint64_t values[] = {0, 1, f.bound - 1, f.bound};
    for (const std::uint64_t v : values) {
      if (v > f.bound) continue;  // bound 0 cannot happen (schema rule 2)
      util::ByteSink sink;
      Writer w(sink);
      w.uv(f, v);
      util::ByteSource src(sink.bytes());
      Reader r(src);
      bool round = false;
      try {
        round = (r.uv(f) == v) && src.exhausted();
      } catch (const util::DecodeError&) {
      }
      expect(round, m, f, "in-bound value must round-trip");
    }
    if (f.bound < kU64Max) {
      util::ByteSink sink;
      sink.put_uvarint(f.bound + 1);  // forged: bypasses the Writer check
      util::ByteSource src(sink.bytes());
      Reader r(src);
      expect(throws_decode([&] { (void)r.uv(f); }), m, f,
             "bound+1 wire value must throw DecodeError");
      util::ByteSink reject;
      Writer w(reject);
      expect(throws_contract([&] { w.uv(f, f.bound + 1); }), m, f,
             "bound+1 encode must throw ContractViolation");
    }
  }

  void u8_field(const MessageDesc& m, const FieldDesc& f) {
    for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, f.bound}) {
      if (v > f.bound) continue;
      util::ByteSink sink;
      Writer w(sink);
      w.u8(f, static_cast<std::uint8_t>(v));
      util::ByteSource src(sink.bytes());
      Reader r(src);
      bool round = false;
      try {
        round = (r.u8(f) == v) && src.exhausted();
      } catch (const util::DecodeError&) {
      }
      expect(round, m, f, "in-bound value must round-trip");
    }
    if (f.bound < 0xff) {
      util::ByteSink sink;
      sink.put_u8(static_cast<std::uint8_t>(f.bound + 1));
      util::ByteSource src(sink.bytes());
      Reader r(src);
      expect(throws_decode([&] { (void)r.u8(f); }), m, f,
             "bound+1 wire value must throw DecodeError");
      util::ByteSink reject;
      Writer w(reject);
      expect(throws_contract(
                 [&] { w.u8(f, static_cast<std::uint8_t>(f.bound + 1)); }),
             m, f, "bound+1 encode must throw ContractViolation");
    }
  }

  void string_field(const MessageDesc& m, const FieldDesc& f) {
    for (const char* s : {"", "a"}) {
      util::ByteSink sink;
      Writer w(sink);
      w.str(f, s);
      util::ByteSource src(sink.bytes());
      Reader r(src);
      bool round = false;
      try {
        round = (r.str(f) == s) && src.exhausted();
      } catch (const util::DecodeError&) {
      }
      expect(round, m, f, "in-bound string must round-trip");
    }
    length_claims(m, f, [](Reader& r, const FieldDesc& fd) {
      (void)r.str(fd);
    });
  }

  void bytes_field(const MessageDesc& m, const FieldDesc& f) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
      const std::vector<std::uint8_t> data(n, 0x5a);
      util::ByteSink sink;
      Writer w(sink);
      w.blob(f, data.data(), data.size());
      util::ByteSource src(sink.bytes());
      Reader r(src);
      bool round = false;
      try {
        round = (r.blob(f) == data) && src.exhausted();
      } catch (const util::DecodeError&) {
      }
      expect(round, m, f, "in-bound blob must round-trip");
    }
    length_claims(m, f, [](Reader& r, const FieldDesc& fd) {
      (void)r.blob(fd);
    });
  }

  void repeated_field(const MessageDesc& m, const FieldDesc& f) {
    if (!f.external_count) {
      // In-bound count with enough bytes behind it is accepted.
      util::ByteSink sink;
      Writer w(sink);
      w.count(f, 1);
      sink.put_u8(0);  // one byte of element data
      util::ByteSource src(sink.bytes());
      Reader r(src);
      bool ok = false;
      try {
        ok = (r.count(f) == 1);
      } catch (const util::DecodeError&) {
      }
      expect(ok, m, f, "in-bound count must be accepted");
      length_claims(m, f, [](Reader& r2, const FieldDesc& fd) {
        (void)r2.count(fd);
      });
    } else if (f.bound < kU64Max) {
      util::ByteSource src(nullptr, 0);
      Reader r(src);
      expect(throws_decode([&] { (void)r.count_external(f, f.bound + 1); }),
             m, f, "bound+1 external count must throw DecodeError");
    }
    util::ByteSink reject;
    Writer w(reject);
    if (f.bound < kU64Max) {
      expect(throws_contract([&] { w.count(f, f.bound + 1); }), m, f,
             "bound+1 encode count must throw ContractViolation");
    }
  }

 private:
  template <typename Fn>
  static bool throws_decode(Fn&& fn) {
    try {
      fn();
    } catch (const util::DecodeError&) {
      return true;
    } catch (...) {
      return false;
    }
    return false;
  }

  template <typename Fn>
  static bool throws_contract(Fn&& fn) {
    try {
      fn();
    } catch (const ContractViolation&) {
      return true;
    } catch (...) {
      return false;
    }
    return false;
  }

  // Hostile length/count claims: bound+1 (rejected by the bound check,
  // no matter how short the buffer) and an in-bound claim with no data
  // behind it (rejected by the remaining-bytes check).
  template <typename ReadFn>
  void length_claims(const MessageDesc& m, const FieldDesc& f, ReadFn read) {
    if (f.bound < kU64Max) {
      util::ByteSink sink;
      sink.put_uvarint(f.bound + 1);
      util::ByteSource src(sink.bytes());
      Reader r(src);
      expect(throws_decode([&] { read(r, f); }), m, f,
             "bound+1 length claim must throw DecodeError");
    }
    {
      util::ByteSink sink;
      sink.put_uvarint(std::min<std::uint64_t>(f.bound, 5));
      util::ByteSource src(sink.bytes());
      Reader r(src);
      expect(throws_decode([&] { read(r, f); }), m, f,
             "length claim past the buffer must throw DecodeError");
    }
  }

  SelftestResult result_;
};

}  // namespace

SelftestResult boundary_selftest() {
  Checker c;
  for (const MessageDesc* m : kRegistry) {
    for (std::size_t i = 0; i < m->num_fields; ++i) {
      const FieldDesc& f = m->fields[i];
      switch (f.kind) {
        case FieldKind::kU8:
          c.u8_field(*m, f);
          break;
        case FieldKind::kUvarint32:
        case FieldKind::kUvarint64:
          c.uvarint_field(*m, f);
          break;
        case FieldKind::kString:
          c.string_field(*m, f);
          break;
        case FieldKind::kBytes:
          c.bytes_field(*m, f);
          break;
        case FieldKind::kRepeated:
          c.repeated_field(*m, f);
          break;
        case FieldKind::kRaw:
        case FieldKind::kNested:
        case FieldKind::kCrc32:
          break;  // no scalar boundary of their own
      }
    }
  }
  return c.finish();
}

}  // namespace ccvc::wire
