# check_golden.cmake — run one CLI golden and compare its output bytes; the
# golden_* ctest tests (CMakeLists.txt lists them) run it as
#   cmake -DCLI=<profisched> -DNAME=<golden> -DEXIT=<code> -DARGS="<args>"
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<dir> -P check_golden.cmake
# A golden NAME.txt is compared against stdout; otherwise NAME.csv and
# NAME.json are compared against the files --csv/--json write. The run must
# exit with EXIT.
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(out "${OUT_DIR}/${NAME}")
file(MAKE_DIRECTORY "${OUT_DIR}")
file(REMOVE "${out}.txt" "${out}.csv" "${out}.json")  # no stale output may pass
if(EXISTS "${GOLDEN_DIR}/${NAME}.txt")
  set(outputs txt)
  set(stdout "${out}.txt")
else()
  set(outputs csv json)
  list(APPEND args --csv "${out}.csv" --json "${out}.json")
  set(stdout "${out}.stdout")
endif()

execute_process(COMMAND "${CLI}" ${args} RESULT_VARIABLE rc OUTPUT_FILE "${stdout}")
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "${NAME}: profisched ${ARGS} exited with '${rc}', expected ${EXIT}")
endif()
foreach(ext IN LISTS outputs)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN_DIR}/${NAME}.${ext}"
                          "${out}.${ext}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${NAME}: ${out}.${ext} differs from ${GOLDEN_DIR}/${NAME}.${ext}")
  endif()
endforeach()
