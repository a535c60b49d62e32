# Smoke test of absim_bench: every workload BENCHMARK.json lists runs at
# tiny scale (the bench/micro sweep knobs shrink every figure), untraced
# and traced, exits 0, reports a correct run, and
# prints every metric BENCHMARK.json names (end-to-end untraced,
# per-layer traced) in its result line.
#
#   cmake -DBENCH=... -DSERVE=... -DKERNEL=... -DSPEC=BENCHMARK.json
#         -DWORK_DIR=... -P smoke_test.cmake
cmake_minimum_required(VERSION 3.19)

file(READ ${SPEC} spec)

function(names_of section out)
    string(JSON count LENGTH "${spec}" ${section})
    math(EXPR last "${count} - 1")
    set(names "")
    foreach(i RANGE ${last})
        string(JSON name GET "${spec}" ${section} ${i} name)
        list(APPEND names ${name})
    endforeach()
    set(${out} ${names} PARENT_SCOPE)
endfunction()

set(ENV{ABSIM_BENCH_SWEEP_SIZE} 256)
set(ENV{ABSIM_BENCH_SWEEP_PROCS} 2)

names_of(workloads workloads)
names_of(end_to_end end_to_end)
names_of(per_layer per_layer)

foreach(workload IN LISTS workloads)
    foreach(trace 0 1)
        execute_process(
            COMMAND ${BENCH} --workload ${workload} --seconds 0.2
                --trace ${trace}
                --out-dir ${WORK_DIR}/${workload}
                --serve-bin ${SERVE} --kernel-bench ${KERNEL}
            RESULT_VARIABLE rc
            OUTPUT_VARIABLE out
            ERROR_VARIABLE err)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "${workload} --trace ${trace} exited ${rc}:\n${out}\n${err}")
        endif()
        string(STRIP "${out}" out)
        string(REGEX MATCH "[^\n]*$" result "${out}")
        string(JSON correct GET "${result}" correct)
        if(NOT correct)
            message(FATAL_ERROR "${workload} reported an incorrect run:\n${out}")
        endif()
        if(trace EQUAL 0)
            set(expected ${end_to_end})
        else()
            set(expected ${per_layer})
        endif()
        string(JSON printed LENGTH "${result}" metrics)
        list(LENGTH expected want)
        if(NOT printed EQUAL want)
            message(FATAL_ERROR "${workload} --trace ${trace} printed "
                "${printed} metrics, BENCHMARK.json lists ${want}")
        endif()
        foreach(metric IN LISTS expected)
            string(JSON value ERROR_VARIABLE missing
                GET "${result}" metrics ${metric} value)
            if(missing)
                message(FATAL_ERROR
                    "${workload} --trace ${trace} did not print ${metric}")
            endif()
        endforeach()
        message(STATUS "${workload} --trace ${trace}: ok")
    endforeach()
endforeach()
