# Runs PROGRAM with the arguments that follow `--` on the cmake command
# line and passes only when it exits 0 and its stdout equals the GOLDEN
# file byte for byte.  On a mismatch the actual output is written to
# ACTUAL so it can be diffed against the golden file, and the first 40
# lines of `diff -u` follow the error message.
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
  # The runner's ACTUAL file is gone when the job ends, so the log carries
  # the first 40 lines of the diff when a diff program is found.
  set(excerpt "")
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND ${DIFF_PROGRAM} -u ${GOLDEN} ${ACTUAL}
      OUTPUT_VARIABLE diff_output)
    set(cut 0)
    foreach(line RANGE 1 40)
      string(SUBSTRING "${diff_output}" ${cut} -1 rest)
      string(FIND "${rest}" "\n" newline)
      if(newline EQUAL -1)
        string(LENGTH "${diff_output}" cut)
        break()
      endif()
      math(EXPR cut "${cut} + ${newline} + 1")
    endforeach()
    string(SUBSTRING "${diff_output}" 0 ${cut} excerpt)
    # message() reflows a line unless it starts with a space.
    string(REPLACE "\n" "\n  " excerpt "\n${excerpt}")
  endif()
  message(FATAL_ERROR
    "stdout differs from the golden file; compare with\n"
    "  diff ${GOLDEN} ${ACTUAL}${excerpt}")
endif()
