# Runs PROGRAM with the arguments that follow `--` on the cmake command
# line and passes only when it exits 0 and its stdout equals the GOLDEN
# file byte for byte.  On a mismatch the actual output is written to
# ACTUAL so it can be diffed against the golden file.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file>
#         -P check_golden.cmake [-- <arg>...]
set(args)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_separator)
    list(APPEND args "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${PROGRAM} ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${args} exited with status ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR
    "stdout differs from the golden file; compare with\n"
    "  diff ${GOLDEN} ${ACTUAL}")
endif()
