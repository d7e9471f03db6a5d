# Test-time script: runs one example program and compares its stdout
# byte for byte with a checked-in expected file.  Backs the
# examples.<name>.output ctests (examples/CMakeLists.txt).  The examples
# print only simulated counts, so their output is the same on every host
# and instruction set; a difference is a change in a simulated result.
#
# Usage: cmake -DPROGRAM=<executable> -DEXPECTED=<file> -P CompareOutput.cmake
if(NOT PROGRAM OR NOT EXPECTED)
  message(FATAL_ERROR "CompareOutput: PROGRAM and EXPECTED must be defined")
endif()

execute_process(
  COMMAND "${PROGRAM}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()

file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "${PROGRAM}: stdout differs from ${EXPECTED}\n"
    "--- expected ---\n${expected}--- actual ---\n${actual}")
endif()
