# Negative test of absim_bench's output check: a sweep workload told to
# expect a wrong value sum must exit 1 with the "simulated results
# changed" diagnostic.
#
#   cmake -DBENCH=... -DSERVE=... -DKERNEL=... -DWORKLOAD=...
#         -DWORK_DIR=... -P wrong_value_sum_test.cmake
cmake_minimum_required(VERSION 3.19)

set(ENV{ABSIM_BENCH_SWEEP_SIZE} 256)
set(ENV{ABSIM_BENCH_SWEEP_PROCS} 2)
execute_process(
    COMMAND ${BENCH} --workload ${WORKLOAD} --seconds 0.2
        --expect-value-sum 1 --out-dir ${WORK_DIR}/${WORKLOAD}
        --serve-bin ${SERVE} --kernel-bench ${KERNEL}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${WORKLOAD}: exit ${rc}, want 1:\n${out}\n${err}")
endif()
if(NOT err MATCHES "simulated results changed: ${WORKLOAD} value_sum_us")
    message(FATAL_ERROR "${WORKLOAD}: no 'simulated results changed' "
        "diagnostic:\n${err}")
endif()
string(STRIP "${out}" out)
string(REGEX MATCH "[^\n]*$" result "${out}")
string(JSON correct GET "${result}" correct)
if(correct)
    message(FATAL_ERROR "${WORKLOAD}: result line reports a correct run")
endif()
