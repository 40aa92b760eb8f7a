/// libFuzzer entry point over the shared fuzz drivers (tests/
/// fuzz_drivers.hpp). Built only with -DDPS_LIBFUZZER=ON (requires clang's
/// -fsanitize=fuzzer); the gtest harness in fuzz_test.cpp exercises the
/// same drivers unconditionally, so tier-1 coverage never depends on this
/// binary existing.
///
/// The first byte selects the driver so one corpus can explore all of
/// them:
///   0 -> wire protocol codec     2 -> CSV parser
///   1 -> INI parser              3 -> fault-plan generator/injector
///   4 -> INI config sections: load/validate/round-trip

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "fuzz_drivers.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t selector = data[0] % 5;
  ++data;
  --size;
  switch (selector) {
    case 0:
      if (!dps::fuzz::drive_protocol(data, size)) std::abort();
      break;
    case 1:
      dps::fuzz::drive_ini(data, size);
      break;
    case 2:
      dps::fuzz::drive_csv(data, size);
      break;
    case 3:
      if (!dps::fuzz::drive_fault_plan(data, size)) std::abort();
      break;
    default:
      if (!dps::fuzz::drive_config(data, size)) std::abort();
      break;
  }
  return 0;
}
