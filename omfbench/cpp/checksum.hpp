// Logical-value checksum of a decoded record.
//
// Walks a native-layout record by its format's fields and hashes the values
// they hold (following string and dynamic-array pointers, recursing into
// nested records), so the generator can compute the expected checksum from
// its source record and every workload can verify a record decoded from any
// sender's wire layout against it. The top-level "seq" field is skipped: it
// carries the op id, which workloads check for equality separately.
#pragma once

#include <cstdint>

#include "pbio/format.hpp"

namespace omfbench {

std::uint64_t record_checksum(const omf::pbio::Format& native,
                              const void* record);

/// The op id stored in a record's top-level "seq" field (native layout).
std::uint64_t record_seq(const omf::pbio::Format& native, const void* record);

}  // namespace omfbench
