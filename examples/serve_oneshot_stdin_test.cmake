# absim_serve --oneshot reads stdin through the capped line reader:
# 2 MiB of newline-free stdin gets exactly one bad-request line, and a
# final request without its newline is still answered.  Run via ctest:
# cmake -DSERVE_BIN=... -P this_file.
cmake_policy(VERSION 3.16)
if(NOT DEFINED SERVE_BIN)
    message(FATAL_ERROR "pass -DSERVE_BIN=<path to absim_serve>")
endif()

set(flood "${CMAKE_CURRENT_BINARY_DIR}/serve_oneshot_flood.txt")
string(REPEAT "x" 2097152 bytes)
file(WRITE ${flood} "${bytes}")
execute_process(COMMAND ${SERVE_BIN} --oneshot
                INPUT_FILE ${flood}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "absim_serve --oneshot exited ${rc}:\n${out}")
endif()
string(REGEX MATCHALL "\n" newlines "${out}")
list(LENGTH newlines count)
if(NOT count EQUAL 1 OR
   NOT out MATCHES "\"error\":\"bad-request\".*request line exceeds 1048576 bytes")
    message(FATAL_ERROR "expected one bad-request line, got:\n${out}")
endif()

set(unterminated "${CMAKE_CURRENT_BINARY_DIR}/serve_oneshot_unterminated.txt")
file(WRITE ${unterminated} "{\"op\":\"ping\"}\n{\"op\":\"ping\"}")
execute_process(COMMAND ${SERVE_BIN} --oneshot
                INPUT_FILE ${unterminated}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
set(ping "{\"status\":\"ok\",\"op\":\"ping\"}")
if(NOT rc EQUAL 0 OR NOT out STREQUAL "${ping}\n${ping}\n")
    message(FATAL_ERROR "expected two ping responses (exit ${rc}), got:\n${out}")
endif()
message(STATUS "serve oneshot stdin ok")
