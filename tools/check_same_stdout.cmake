# Runs PROGRAM twice, with ARGS and with ARGS plus EXTRA, and passes only
# when both runs exit 0 and print the same stdout: EXTRA must not change
# what the program computes.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<arg;...>" "-DEXTRA=<arg;...>"
#         -P check_same_stdout.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS}
  OUTPUT_VARIABLE without
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with status ${status}")
endif()
execute_process(COMMAND ${PROGRAM} ${ARGS} ${EXTRA}
  OUTPUT_VARIABLE with
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR
    "${PROGRAM} ${ARGS} ${EXTRA} exited with status ${status}")
endif()
if(NOT with STREQUAL without)
  string(REPLACE ";" " " extra "${EXTRA}")
  message(FATAL_ERROR "'${extra}' changed the output.\nwithout:\n${without}\n"
    "with:\n${with}")
endif()
