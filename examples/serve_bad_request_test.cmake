# Out-of-range run settings are bad requests: absim_serve --oneshot
# answers a procs that is over the node limit or not a power of two
# with a named bad-request and no attempt count, and starts no run.
# Run via ctest: cmake -DSERVE_BIN=... -P this_file.
cmake_policy(VERSION 3.16)
if(NOT DEFINED SERVE_BIN)
    message(FATAL_ERROR "pass -DSERVE_BIN=<path to absim_serve>")
endif()

set(requests "${CMAKE_CURRENT_BINARY_DIR}/serve_bad_request_requests.txt")
file(WRITE ${requests} "{\"op\":\"run\",\"app\":\"is\",\"procs\":100}
{\"op\":\"run\",\"app\":\"is\",\"topology\":\"cube\",\"procs\":3}
{\"op\":\"stats\"}
")

execute_process(COMMAND ${SERVE_BIN} --oneshot
                INPUT_FILE ${requests}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "absim_serve --oneshot exited ${rc}:\n${out}")
endif()

string(REPLACE ";" "<semi>" out "${out}")
string(REPLACE "\n" ";" lines "${out}")
list(GET lines 0 over)
list(GET lines 1 odd)
list(GET lines 2 stats)

foreach(response over odd)
    if(NOT ${response} MATCHES
       "\"error\":\"bad-request\".*invalid procs value")
        message(FATAL_ERROR "expected a procs bad-request, got: "
                            "${${response}}")
    endif()
    if(${response} MATCHES "\"attempts\"")
        message(FATAL_ERROR "a bad request ran: ${${response}}")
    endif()
endforeach()
if(NOT stats MATCHES "\"completed\":0,\"failed\":0.*\"bad_requests\":2.*\"cache_misses\":0")
    message(FATAL_ERROR "bad stats response: ${stats}")
endif()
message(STATUS "serve bad-request session ok")
