// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding every
// record in the disk storage engine's append-only log.
//
// On x86-64 CPUs with SSE4.2 the crc32 instruction computes it eight bytes at
// a time; elsewhere a portable slice-by-4 implementation (four 256-entry
// tables, one 32-bit word per iteration) does. The choice is made at run
// time and both give the same CRCs.
#pragma once

#include <cstdint>

#include "src/common/bytes.h"

namespace past {

// CRC of `data` continuing from `crc` (the CRC of all preceding bytes).
// Streaming: Crc32cExtend(Crc32cExtend(0, a), b) == Crc32c(a || b).
uint32_t Crc32cExtend(uint32_t crc, ByteSpan data);

// One-shot CRC32C of `data`.
inline uint32_t Crc32c(ByteSpan data) { return Crc32cExtend(0, data); }

// Whether Crc32cExtend runs the SSE4.2 crc32 instruction on this CPU.
bool Crc32cHardwareAccelerated();

// Test-only: the portable slice-by-4 code on any CPU, the reference the
// hardware path is checked against.
uint32_t Crc32cExtendPortableForTesting(uint32_t crc, ByteSpan data);

}  // namespace past
