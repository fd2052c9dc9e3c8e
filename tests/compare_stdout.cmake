# Runs PROGRAM with no arguments and fails unless its stdout equals the file
# EXPECTED byte for byte. Usage:
#   cmake -DPROGRAM=<exe> -DEXPECTED=<file> -P compare_stdout.cmake
execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE Actual
                RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${Status}")
endif()
file(READ "${EXPECTED}" Expected)
if(NOT Actual STREQUAL Expected)
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${EXPECTED}:\n"
                      "${Actual}")
endif()
