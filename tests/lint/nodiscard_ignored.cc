// Compile-fail probe for the nodiscard policy (DESIGN.md §8).
//
// This file deliberately ignores fallible results. It is NEVER built into a
// target: the lint_nodiscard_compile_fail ctest runs the compiler on it with
// the repo's flags (-Werror=unused-result) and PASSES only when compilation
// FAILS. If this file ever compiles, the enforcement that keeps call sites
// honest has silently rotted — see tests/lint/nodiscard_checked.cc for the
// matching positive control.
#include "src/common/serializer.h"
#include "src/common/status.h"
#include "src/obs/json.h"
#include "src/pastry/messages.h"
#include "src/storage/file_store.h"

namespace past {

void IgnoresFallibleResults(Reader* r, FileStore* store, StoredFile file) {
  uint8_t v;
  r->U8(&v);  // ignored [[nodiscard]] bool: must not compile

  store->Put(std::move(file));  // ignored StatusCode (type-level attribute)

  store->Sync();  // ignored StatusCode via type-level attribute

  JsonValue doc;
  JsonValue::Parse("{}", &doc);  // ignored [[nodiscard]] bool

  RouteMsg msg;
  Read(r, &msg);  // ignored [[nodiscard]] bool
}

}  // namespace past
