# Run a figure bench with ABSIM_JSON_DIR set to a fresh directory and
# require its exit status and, byte for byte, the figure JSON it
# writes.  Run via ctest:
#   cmake -DBIN=<bench> -DARGS="<arguments>" -DEXPECT_RC=<status>
#         -DOUT=<directory> -DJSON=<file name> -DGOLDEN=<file>
#         -P this_file
cmake_policy(VERSION 3.16)
foreach(var BIN ARGS EXPECT_RC OUT JSON GOLDEN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMAKE_COMMAND} -E env "ABSIM_JSON_DIR=${OUT}"
                        ${BIN} ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT_RC)
    message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected "
                        "${EXPECT_RC}:\n${out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${GOLDEN}" "${OUT}/${JSON}"
                RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR "${OUT}/${JSON} differs from ${GOLDEN}")
endif()
message(STATUS "${BIN} ${ARGS}: ${JSON} matches ${GOLDEN}")
