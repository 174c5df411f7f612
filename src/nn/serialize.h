// Parameter section of the checkpoint codec (support/byte_io.h).
//
// Layout (native endian):
//   magic "EAGLNN1\0" | u32 count | per param:
//     u32 name_len | name bytes | i32 rows | i32 cols | f32 data…
//
// Sections are strict: one restores only into a store holding exactly
// the parameters it lists, with the same names, in store order, with the
// same shapes.
#pragma once

#include "nn/layers.h"
#include "support/byte_io.h"

namespace eagle::nn {

void SaveParams(const ParamStore& store, support::ByteWriter& out);

// Restores the section into `store`; a section that does not match it
// fails `in` with kSyntax.
void LoadParams(ParamStore& store, support::ByteReader& in);

}  // namespace eagle::nn
