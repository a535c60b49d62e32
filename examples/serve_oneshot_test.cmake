# End-to-end oneshot session against absim_serve (no socket): a ping, a
# computed run, the same run again (must be a byte-identical cache hit),
# a sweep over it, a drain, a post-drain compute request (must get the
# draining response), and the run and the sweep again (both must be
# byte-identical hits while draining).  Run via ctest:
# cmake -DSERVE_BIN=... -P this_file.
cmake_policy(VERSION 3.16)
if(NOT DEFINED SERVE_BIN)
    message(FATAL_ERROR "pass -DSERVE_BIN=<path to absim_serve>")
endif()

set(requests "${CMAKE_CURRENT_BINARY_DIR}/serve_oneshot_requests.txt")
file(WRITE ${requests} "{\"op\":\"ping\"}
{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logpc\",\"procs\":4,\"size\":256}
{\"op\":\"run\",\"app\":\"logp+c is\",\"machine\":\"logpc\"}
{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logp+c\",\"procs\":4,\"size\":256}
{\"op\":\"sweep\",\"app\":\"is\",\"machine\":\"logpc\",\"size\":256,\"max_procs\":4}
{\"op\":\"drain\"}
{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logpc\",\"procs\":8,\"size\":256}
{\"op\":\"run\",\"app\":\"is\",\"machine\":\"logpc\",\"procs\":4,\"size\":256}
{\"op\":\"sweep\",\"max_procs\":7,\"procs\":2,\"size\":256,\"machine\":\"logp+c\",\"app\":\"is\"}
{\"op\":\"stats\"}
")

execute_process(COMMAND ${SERVE_BIN} --oneshot
                INPUT_FILE ${requests}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "absim_serve --oneshot exited ${rc}:\n${out}")
endif()

# Response text may contain literal semicolons (CMake's list
# separator); shield them before splitting on newlines.
string(REPLACE ";" "<semi>" out "${out}")
string(REPLACE "\n" ";" lines "${out}")
list(GET lines 0 ping)
list(GET lines 1 run1)
list(GET lines 2 bad)
list(GET lines 3 run2)
list(GET lines 4 sweep1)
list(GET lines 5 drain)
list(GET lines 6 refused)
list(GET lines 7 hit_while_draining)
list(GET lines 8 sweep_while_draining)
list(GET lines 9 stats)

if(NOT ping STREQUAL "{\"status\":\"ok\",\"op\":\"ping\"}")
    message(FATAL_ERROR "bad ping response: ${ping}")
endif()
if(NOT run1 MATCHES "\"status\":\"ok\".*\"exec_time\":")
    message(FATAL_ERROR "bad run response: ${run1}")
endif()
if(NOT bad MATCHES "\"error\":\"bad-request\"")
    message(FATAL_ERROR "expected bad-request, got: ${bad}")
endif()
# The repeated run — spelled with the alias machine name — must replay
# the exact bytes of the first response out of the cache.
if(NOT run1 STREQUAL run2)
    message(FATAL_ERROR "cache hit not byte-identical:\n${run1}\n${run2}")
endif()
if(NOT sweep1 MATCHES "\"complete\":true,\"points\":\\[{\"procs\":1,.*{\"procs\":4,")
    message(FATAL_ERROR "bad sweep response: ${sweep1}")
endif()
if(NOT drain MATCHES "\"draining\":true")
    message(FATAL_ERROR "bad drain response: ${drain}")
endif()
# New compute is refused while draining ...
if(NOT refused MATCHES "\"status\":\"draining\"")
    message(FATAL_ERROR "expected draining response, got: ${refused}")
endif()
# ... but cache hits still serve.
if(NOT hit_while_draining STREQUAL run1)
    message(FATAL_ERROR
            "cache hit while draining not byte-identical:\n"
            "${run1}\n${hit_while_draining}")
endif()
# The sweep, spelled another way (field order, machine alias, an
# ignored procs, a max_procs that runs the same P list), is one hit
# too: the whole curve, served inline while draining.
if(NOT sweep_while_draining STREQUAL sweep1)
    message(FATAL_ERROR
            "sweep hit while draining not byte-identical:\n"
            "${sweep1}\n${sweep_while_draining}")
endif()
# Hits: the repeated run, the sweep's warmed P=4, the run while
# draining, and one per point (3) of the sweep hit.  Misses: the first
# run and the sweep's P=1 and P=2.  Entries: those three runs and the
# complete sweep.
if(NOT stats MATCHES
       "\"rejected_draining\":1.*\"cache_hits\":6,\"cache_misses\":3,\"cache_entries\":4")
    message(FATAL_ERROR "bad stats response: ${stats}")
endif()
message(STATUS "serve oneshot session ok")
