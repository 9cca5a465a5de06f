# Run CMD with the space-separated ARGS inside the scratch directory
# WORK, then compare each file named in the space-separated FILES
# (written there by CMD) byte for byte with its committed copy in
# GOLDEN. -DSTDOUT=NAME also captures CMD's stdout into WORK/NAME and
# compares it as one more file. With -DEXPECT=differ the run must
# still succeed, but some file must differ: that proves the comparison
# can trip.
#
#   cmake -DCMD=prog "-DARGS=--json fig9.json" -DWORK=dir
#         -DGOLDEN=tests/golden -DFILES=fig9.json -P golden.cmake
#
# docs/PERF.md lists the command that regenerates each golden.
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(files UNIX_COMMAND "${FILES}")
if(STDOUT)
    list(APPEND files ${STDOUT})
    set(out OUTPUT_FILE ${WORK}/${STDOUT})
else()
    set(out OUTPUT_QUIET)
endif()
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${CMD} ${args}
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc
                ${out}
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "'${CMD} ${ARGS}' exited ${rc}\n${err}")
endif()
set(differing "")
foreach(f ${files})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORK}/${f} ${GOLDEN}/${f}
                    RESULT_VARIABLE same)
    if(NOT same STREQUAL "0")
        list(APPEND differing ${f})
    endif()
endforeach()
if(EXPECT STREQUAL "differ")
    if(differing STREQUAL "")
        message(FATAL_ERROR "'${CMD} ${ARGS}' matched every golden "
                            "(${files}); the comparison cannot trip")
    endif()
elseif(NOT differing STREQUAL "")
    message(FATAL_ERROR "'${CMD} ${ARGS}' wrote ${differing} unlike "
                        "${GOLDEN}; compare the files in ${WORK}. If "
                        "the change is intended, regenerate the golden "
                        "with the command in docs/PERF.md.")
endif()
