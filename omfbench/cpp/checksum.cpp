#include "checksum.hpp"

#include <cstring>

namespace omfbench {

namespace {

using omf::pbio::ArrayKind;
using omf::pbio::Field;
using omf::pbio::FieldClass;
using omf::pbio::Format;

constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + kMul + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}

std::uint64_t load(const std::uint8_t* p, std::size_t width) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, width);  // little-endian host: low bytes first
  return v;
}

// No clones under ThreadSanitizer: ifunc resolvers run before its runtime.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__SANITIZE_THREAD__)
#define OMFBENCH_VECTOR_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define OMFBENCH_VECTOR_CLONES
#endif

/// The hot loop (double arrays): adds and xors only, so it vectorizes; the
/// checks must stay cheap next to the decode they verify.
OMFBENCH_VECTOR_CLONES void hash_words(
    const std::uint8_t* p, std::size_t n, std::uint64_t& sum,
    std::uint64_t& mixed) noexcept {
  std::uint64_t s = 0;
  std::uint64_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    s += w;
    m ^= w + i * kMul;
  }
  sum = s;
  mixed = m;
}

/// Elements hashed position-dependently.
std::uint64_t hash_elements(const std::uint8_t* p, std::size_t n,
                            std::size_t width) noexcept {
  std::uint64_t sum = 0;
  std::uint64_t mixed = 0;
  if (width == 8) {
    hash_words(p, n, sum, mixed);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t w = load(p + i * width, width);
      sum += w;
      mixed ^= w + i * kMul;
    }
  }
  return mix(mix(n, sum), mixed);
}

std::uint64_t count_value(const Format& f, const std::uint8_t* rec,
                          const Field& array) {
  const Field& count = f.fields()[array.count_field_index];
  std::uint64_t v = load(rec + count.offset, count.size);
  if (count.type.cls == FieldClass::kInteger && count.size < 8 &&
      (v >> (count.size * 8 - 1)) != 0) {
    return 0;  // negative count: nothing to hash
  }
  return v;
}

std::uint64_t hash_record(const Format& f, const std::uint8_t* rec,
                          bool top) {
  const std::size_t ptr = f.profile().pointer_size;
  std::uint64_t h = 0;
  for (const Field& field : f.fields()) {
    // Every benchmark schema declares seq first.
    if (top && &field == f.fields().data() && field.name == "seq") continue;
    const std::uint8_t* slot = rec + field.offset;
    std::uint64_t v = 0;
    if (field.type.cls == FieldClass::kString) {
      const char* s = nullptr;
      std::memcpy(&s, slot, ptr);
      v = s == nullptr ? 1 : hash_elements(
                                 reinterpret_cast<const std::uint8_t*>(s),
                                 std::strlen(s), 1);
    } else if (field.type.cls == FieldClass::kNested) {
      const Format& sub = *field.subformat;
      std::size_t n = 1;
      const std::uint8_t* base = slot;
      if (field.type.array == ArrayKind::kStatic) n = field.type.static_count;
      if (field.type.array == ArrayKind::kDynamic) {
        std::memcpy(&base, slot, ptr);
        n = base == nullptr ? 0 : count_value(f, rec, field);
      }
      v = n;
      for (std::size_t i = 0; i < n; ++i) {
        v = mix(v, hash_record(sub, base + i * sub.struct_size(), false));
      }
    } else if (field.type.array == ArrayKind::kDynamic) {
      const std::uint8_t* base = nullptr;
      std::memcpy(&base, slot, ptr);
      std::size_t n = base == nullptr ? 0 : count_value(f, rec, field);
      v = hash_elements(base, n, field.size);
    } else if (field.type.array == ArrayKind::kStatic) {
      v = hash_elements(slot, field.type.static_count, field.size);
    } else {
      v = load(slot, field.size);
    }
    h = mix(h, v);
  }
  return h;
}

}  // namespace

std::uint64_t record_checksum(const Format& native, const void* record) {
  return hash_record(native, static_cast<const std::uint8_t*>(record), true);
}

std::uint64_t record_seq(const Format& native, const void* record) {
  const Field* f = native.field_named("seq");
  if (f == nullptr) return 0;
  return load(static_cast<const std::uint8_t*>(record) + f->offset, f->size);
}

}  // namespace omfbench
