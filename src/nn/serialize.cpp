#include "nn/serialize.h"

#include <string_view>

namespace eagle::nn {

namespace {
constexpr std::string_view kMagic("EAGLNN1\0", 8);
}

void SaveParams(const ParamStore& store, support::ByteWriter& out) {
  out.Write(kMagic.data(), kMagic.size());
  out.Put(static_cast<std::uint32_t>(store.params().size()));
  for (const auto& p : store.params()) {
    out.PutName(p->name);
    out.Put(static_cast<std::int32_t>(p->value.rows()),
            static_cast<std::int32_t>(p->value.cols()));
    out.Write(p->value.data(),
              static_cast<std::size_t>(p->value.size()) * sizeof(float));
  }
}

void LoadParams(ParamStore& store, support::ByteReader& in) {
  in.Expect(kMagic, "parameter section magic");
  // Smallest entry: name length, rows and cols.
  in.ExpectCount(store.params().size(), 12, "parameters");
  for (const auto& p : store.params()) {
    const std::size_t name_at = in.offset();
    if (in.Name() != p->name) {
      in.Fail(name_at, "expected parameter '" + p->name + "'");
    }
    const std::size_t shape_at = in.offset();
    const auto rows = in.Get<std::int32_t>();
    const auto cols = in.Get<std::int32_t>();
    if (rows != p->value.rows() || cols != p->value.cols()) {
      in.Fail(shape_at, "parameter '" + p->name + "' is " +
                            std::to_string(rows) + "x" + std::to_string(cols) +
                            ", expected " + p->value.ShapeString());
    }
    in.Read(p->value.data(),
            static_cast<std::size_t>(p->value.size()) * sizeof(float));
  }
}

}  // namespace eagle::nn
