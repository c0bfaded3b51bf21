# Two processes that save the same run must write identical checkpoint
# files. The second runs under MALLOC_PERTURB_, which fills fresh heap
# memory with a pattern, so any byte a save copies from memory the
# simulation never wrote (struct padding) differs between the two.
#
#   cmake -DFIG9=<fig9_speedup> -DOUT=<scratch dir> -P ckpt_two_process.cmake

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
foreach(run plain perturbed)
    set(env "")
    if(run STREQUAL "perturbed")
        set(env ${CMAKE_COMMAND} -E env MALLOC_PERTURB_=165)
    endif()
    execute_process(
        COMMAND ${env} "${FIG9}" --scale 0.01 --threads 1
                --checkpoint-save "auto:${OUT}/${run}"
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fig9_speedup (${run}) exited ${rc}:\n${err}")
    endif()
endforeach()

file(GLOB saved RELATIVE "${OUT}" "${OUT}/plain.*.ckpt")
list(LENGTH saved n)
if(NOT n EQUAL 6)
    message(FATAL_ERROR "expected 6 checkpoint files, found ${n}: ${saved}")
endif()
set(differ "")
foreach(f IN LISTS saved)
    string(REGEX REPLACE "^plain\\." "perturbed." g "${f}")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}/${f}" "${OUT}/${g}"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        list(APPEND differ "${f}")
    endif()
endforeach()
if(differ)
    message(FATAL_ERROR "the two processes wrote different bytes: ${differ}")
endif()
message(STATUS "${n} checkpoint files byte-identical across processes")
