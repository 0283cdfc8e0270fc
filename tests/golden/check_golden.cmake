# Runs BENCH with no arguments and passes only when its stdout equals the
# GOLDEN file byte for byte.  On a mismatch the actual output is written
# to ACTUAL so it can be diffed against the golden file.
execute_process(COMMAND ${BENCH}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR
    "stdout differs from the golden file; compare with\n"
    "  diff ${GOLDEN} ${ACTUAL}")
endif()
