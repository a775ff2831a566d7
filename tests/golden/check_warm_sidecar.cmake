# check_warm_sidecar.cmake — a fully cached simulation run still lists its
# sim.* series. The metrics_warm_combined ctest test (CMakeLists.txt) runs it
# as
#   cmake -DCLI=<profisched> -DPYTHON=<python3> -DCHECK=<tools/metrics_check.py>
#         -DARGS="<simulate args>" -DOUT_DIR=<dir> -P check_warm_sidecar.cmake
# It fills a fresh cache with one run, then repeats the command with --metrics
# in a process of its own, so no earlier run in that process has registered
# the series: every lookup must hit, and metrics_check.py must accept the
# sidecar.
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(cache "${OUT_DIR}/warm_cache")
set(sidecar "${OUT_DIR}/warm_metrics.json")
file(REMOVE_RECURSE "${cache}")
file(REMOVE "${sidecar}")

execute_process(COMMAND "${CLI}" ${args} --cache "${cache}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cold run: profisched ${ARGS} exited with '${rc}'")
endif()
execute_process(COMMAND "${CLI}" ${args} --cache "${cache}" --metrics "${sidecar}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm run: profisched ${ARGS} exited with '${rc}'")
endif()
if(NOT out MATCHES "result cache: [1-9][0-9]* hits / 0 misses")
  message(FATAL_ERROR "the warm run was not fully cached:\n${out}")
endif()
execute_process(COMMAND "${PYTHON}" "${CHECK}" "${sidecar}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "metrics_check.py refused ${sidecar}")
endif()
