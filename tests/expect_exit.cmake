# Run CMD with the space-separated ARGS and fail unless it exits with
# status EXPECT. Status 0 must print to stdout (--help); any other
# status must explain itself on stderr (a usage error). An optional
# REJECT regex must not match stdout (work the failure should have
# preempted).
#
#   cmake -DCMD=prog "-DARGS=--seed abc" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
    message(FATAL_ERROR "'${CMD} ${ARGS}' exited ${rc}, want ${EXPECT}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(EXPECT STREQUAL "0" AND out STREQUAL "")
    message(FATAL_ERROR "'${CMD} ${ARGS}' printed nothing to stdout")
endif()
if(NOT EXPECT STREQUAL "0" AND err STREQUAL "")
    message(FATAL_ERROR "'${CMD} ${ARGS}' printed nothing to stderr")
endif()
if(DEFINED REJECT AND out MATCHES "${REJECT}")
    message(FATAL_ERROR "'${CMD} ${ARGS}' printed '${REJECT}' to stdout:\n"
                        "${out}")
endif()
