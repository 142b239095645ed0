// Seeded env-hygiene violations (env-getenv): direct getenv() anywhere
// outside util/env.cpp and Config::import_env bypasses the strict typed
// parse helpers.  Never compiled; parsed by the fixture self-test.
#include <cstdlib>

namespace fixture {

const char* threads() {
  return std::getenv("RINGCLU_THREADS");  // violation: bypasses util/env.h
}

const char* suppressed() {
  // ringclu-lint: allow(env-getenv: launcher diagnostic, value unused)
  return std::getenv("RINGCLU_TRACE_DIR");
}

}  // namespace fixture
