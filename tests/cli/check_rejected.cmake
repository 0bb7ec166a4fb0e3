# Runs the CLI and fails unless it exits 2 and its stderr holds EXPECT:
# cmake -DEXE=<binary> -DARGS=<args> -DENV=<NAME=value ...> -DEXPECT=<text>
#       -P check_rejected.cmake
separate_arguments(ARGS)
separate_arguments(ENV)
execute_process(COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${EXE} ${ARGS}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE code)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${code}, not 2:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} ${ARGS} printed no '${EXPECT}':\n${err}")
endif()
