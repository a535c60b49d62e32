# Run one command and require both its exit status and a pattern in
# its output (stdout and stderr together).  A PASS_REGULAR_EXPRESSION
# alone ignores the exit status, so a crash (139) that printed the
# diagnostic first would pass it.  Run via ctest:
#   cmake -DBIN=<program> -DARGS="<arguments>" -DEXPECT_RC=<status>
#         -DEXPECT_REGEX=<pattern> -P this_file
cmake_policy(VERSION 3.16)
foreach(var BIN ARGS EXPECT_RC EXPECT_REGEX)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT_RC)
    message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected "
                        "${EXPECT_RC}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_REGEX}")
    message(FATAL_ERROR "${BIN} ${ARGS}: output does not match "
                        "'${EXPECT_REGEX}':\n${out}")
endif()
message(STATUS "${BIN} ${ARGS}: exit ${rc} with the expected diagnostic")
