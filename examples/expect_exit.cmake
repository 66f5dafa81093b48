# ctest helper: runs PROGRAM with the one argument ARG and fails unless it
# exits with status EXPECT.
#
#   cmake -DPROGRAM=<exe> -DARG=<arg> -DEXPECT=<status> -P expect_exit.cmake
execute_process(COMMAND "${PROGRAM}" "${ARG}" RESULT_VARIABLE status
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR
          "${PROGRAM} ${ARG}: exit status ${status}, expected ${EXPECT}\n"
          "${err}")
endif()
