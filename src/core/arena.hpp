// core::Arena — the per-dump bump arena of the decode hot path.
//
// The allocator itself lives in util (src/util/arena.hpp) so the bgp and
// mrt layers below core can use it for attribute interning; this header
// re-exports it under the core namespace where the dump/prefetch layer
// that owns arena lifetimes (DumpReader, ChunkedFile) lives.
//
// Lifetime rule: everything an Arena hands out dies with the arena. The
// decode path ties one arena to each DumpReader (the synchronous and
// prefetched paths both construct one per dump file), and nothing
// allocated from it escapes into emitted Records — records are
// self-contained values, so public iteration semantics are unchanged.
// See ARCHITECTURE.md ("Arena + zero-copy decode").
#pragma once

#include "util/arena.hpp"

namespace bgps::core {

using bgps::Arena;
using bgps::InternedString;

}  // namespace bgps::core
