# Runs one simulator bench and diffs its output against a checked-in golden
# file, byte for byte (ctest label "sim"; see tests/golden/README.md).
#
#   cmake -DBENCH=<binary> -DARGS=<;-list> -DGOLDEN=<file>
#         [-DOUTPUT=<file the bench writes>] [-DCUT=<marker>]
#         -P check_golden.cmake
#
# Without OUTPUT the bench's stdout is compared; with it, the file the bench
# writes there (ARGS must name the same path). CUT drops everything from the
# first line containing the marker on, for a trailing section that measures
# wall-clock time instead of the simulator.
foreach(var BENCH GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: ${var} is not set")
  endif()
endforeach()

execute_process(COMMAND ${BENCH} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
if(DEFINED OUTPUT)
  file(READ ${OUTPUT} actual)
endif()
if(DEFINED CUT)
  string(FIND "${actual}" "${CUT}" at)
  if(at GREATER_EQUAL 0)
    string(SUBSTRING "${actual}" 0 ${at} actual)
    # Keep whole lines: cut back to the start of the marker's line.
    string(FIND "${actual}" "\n" nl REVERSE)
    math(EXPR keep "${nl} + 1")
    string(SUBSTRING "${actual}" 0 ${keep} actual)
  endif()
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  set(got ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${got} "${actual}")
  message(FATAL_ERROR
          "output differs from ${GOLDEN}\n"
          "  actual output written to ${got}\n"
          "  compare: diff ${GOLDEN} ${got}")
endif()
