# Runs one example and fails unless it exits 0 and its stdout holds the
# EXPECT text: cmake -DEXE=<binary> -DEXPECT=<text> -P check_example.cmake
execute_process(COMMAND ${EXE} OUTPUT_VARIABLE out RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${code}:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${EXE} printed no '${EXPECT}':\n${out}")
endif()
