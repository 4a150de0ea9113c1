# Runs BIN (with the space-separated ARGS, if given) and fails unless its
# stdout equals the GOLDEN file byte for byte.
#
#   cmake -DBIN=<binary> [-DARGS=<args>] -DGOLDEN=<expected stdout>
#         -P compare.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${actual_file} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
