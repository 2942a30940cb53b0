# Runs a command and fails unless it exits with the expected status.
#
#   cmake -DEXPECT_EXIT=<status> -P expect_exit.cmake -- <command> [args...]
#
# ctest alone only tells zero from non-zero; this tells a usage error
# (exit 2) from a crash or abort.
set(cmd "")
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${status}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
message(STATUS "exit ${status} as expected\n${err}")
