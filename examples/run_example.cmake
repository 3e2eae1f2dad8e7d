# Runs one example for its smoke test: a non-zero exit fails the test, else
# the output is echoed for PASS_REGULAR_EXPRESSION.
#   cmake -DEXAMPLE=<path> -P run_example.cmake
execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
message("${out}")
