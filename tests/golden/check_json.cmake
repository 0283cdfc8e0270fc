# Runs the programs that write JSON artifacts, into OUT_DIR, and passes
# only when each exits 0 and every artifact is strict JSON.  This is the
# non-finite-metric regression: inf/nan must serialize as null, never as
# a bare token a JSON parser rejects, and control bytes in names must be
# escaped (the writers emit no raw control byte but newline).  It also
# holds the sweep runner's contract at the program level: a sweep bench
# run at 1 and at 2 threads writes byte-identical artifacts, and a sweep
# writes its BENCH_<name>.json and nothing beside it.
#
#   cmake -DBURSTY_LOSS_SWEEP=<exe> -DRED_VS_DROPTAIL=<exe>
#         -DFIG1_TIMESERIES=<exe> -DQUEUE_OCCUPANCY=<exe> -DOUT_DIR=<dir>
#         -P check_json.cmake
function(run)
  execute_process(COMMAND ${ARGN} OUTPUT_QUIET RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${ARGN} exited with status ${status}")
  endif()
endfunction()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
run(${BURSTY_LOSS_SWEEP} --out ${OUT_DIR})
run(${FIG1_TIMESERIES} --metrics-out ${OUT_DIR}/METRICS_fig1.json)
run(${QUEUE_OCCUPANCY} --metrics-out ${OUT_DIR}/METRICS_queue.json)
run(${RED_VS_DROPTAIL} --threads 1 --out ${OUT_DIR}/threads1)
run(${RED_VS_DROPTAIL} --threads 2 --out ${OUT_DIR}/threads2)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
  ${OUT_DIR}/threads1/BENCH_red_vs_droptail.json
  ${OUT_DIR}/threads2/BENCH_red_vs_droptail.json
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "BENCH_red_vs_droptail.json differs between "
                      "--threads 1 and --threads 2 (or is missing)")
endif()
file(GLOB_RECURSE csv ${OUT_DIR}/BENCH_*.csv)
if(csv)
  message(FATAL_ERROR "a sweep wrote more than its JSON artifact: ${csv}")
endif()

file(GLOB_RECURSE artifacts ${OUT_DIR}/*.json)
list(LENGTH artifacts count)
if(count LESS 5)
  message(FATAL_ERROR "expected at least 5 JSON artifacts in ${OUT_DIR}, "
                      "found ${count}")
endif()
foreach(artifact IN LISTS artifacts)
  file(READ ${artifact} content)
  string(JSON type ERROR_VARIABLE error TYPE "${content}")
  if(error)
    message(FATAL_ERROR "${artifact} is not strict JSON: ${error}")
  endif()
  foreach(code RANGE 1 31)
    if(NOT code EQUAL 10)
      string(ASCII ${code} byte)
      string(FIND "${content}" "${byte}" at)
      if(at GREATER_EQUAL 0)
        message(FATAL_ERROR
          "${artifact} holds raw control byte ${code} at offset ${at}")
      endif()
    endif()
  endforeach()
endforeach()
