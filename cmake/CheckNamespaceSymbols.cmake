# Test-time script proving an optional subsystem is what it claims to be at
# the symbol level.  Backs a ctest registered in the top-level CMakeLists:
#
#   lint.sanitizer_zero_cost      PREFIX=6simdts3san  (simdts::san, SimdSan)
#
# With the subsystem's option OFF, no symbol of the namespace may be defined
# anywhere in libsimdts.a — the code must vanish, not just idle; with ON, the
# symbols must be present (the hooks really were compiled in).  The
# check greps nm output for the mangled namespace prefix (the itanium
# encoding, e.g. `6simdts3san` for simdts::san), which no other namespace in
# the project can produce.
#
# Usage: cmake -DNM=<nm> -DLIB=<libsimdts.a> -DPREFIX=<mangled-prefix>
#              -DWHAT=<human name> -DEXPECT_PRESENT=<ON|OFF>
#              -P CheckNamespaceSymbols.cmake
if(NOT NM OR NOT LIB OR NOT PREFIX OR NOT WHAT)
  message(FATAL_ERROR
    "CheckNamespaceSymbols: NM, LIB, PREFIX and WHAT must be defined")
endif()

execute_process(
  COMMAND "${NM}" --defined-only "${LIB}"
  OUTPUT_VARIABLE symbols
  ERROR_VARIABLE nm_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nm failed on ${LIB}: ${nm_err}")
endif()

string(FIND "${symbols}" "${PREFIX}" pos)

if(EXPECT_PRESENT)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "${WHAT} is enabled but no ${PREFIX} symbol is defined in ${LIB} — "
      "it was not compiled in")
  endif()
  message(STATUS "${WHAT} symbols present in ${LIB}, as expected (ON)")
else()
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR
      "${WHAT} is disabled but ${PREFIX} symbols are defined in ${LIB} — "
      "it leaked into the default build and is no longer provably absent")
  endif()
  message(STATUS "no ${WHAT} symbols in ${LIB}, as expected (OFF)")
endif()
