# Round-trip smoke for rppm_trace: synth -> info -> profile from memory
# and streamed from the file, which must print the same summary; then
# malformed numeric flags must be rejected. Invoked by CTest (see
# CMakeLists.txt).
set(trace "${WORK_DIR}/smoke.rppmtrc")

function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        list(JOIN ARGV " " cmdline)
        message(FATAL_ERROR "command failed (${rc}): ${cmdline}")
    endif()
endfunction()

# Profile the trace with the given arguments; store the summary line,
# minus its [engine] tag, in ${out_var}.
function(profile_summary out_var)
    execute_process(COMMAND ${RPPM_TRACE} profile ${trace} ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "profile ${ARGN} failed (${rc})")
    endif()
    string(REGEX REPLACE " \\[[a-z]+\\]" "" out "${out}")
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run(${RPPM_TRACE} synth ${trace} --records 300000 --sync-period 10000
    --name smoke)
run(${RPPM_TRACE} info ${trace})
profile_summary(memory --engine memory --jobs 2)
profile_summary(streaming --engine streaming --stream-chunk 4096 --jobs 2)
if(NOT memory STREQUAL streaming)
    message(FATAL_ERROR "sources disagree:\n  memory:    ${memory}"
                        "  streaming: ${streaming}")
endif()
message(STATUS "both sources: ${memory}")

# Malformed numeric flags are usage errors (exit 2), never a silently
# truncated number.
foreach(bad "--stream-chunk;4k" "--jobs;two")
    execute_process(COMMAND ${RPPM_TRACE} profile ${trace} ${bad}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 2)
        list(JOIN bad " " flag)
        message(FATAL_ERROR "profile ${flag} exited ${rc}, expected 2")
    endif()
endforeach()

file(REMOVE ${trace})
