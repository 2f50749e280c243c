# ctest driver: runs BINARY with ARGS (a ;-list) in a fresh WORKDIR and
# expects the unknown-flag usage error — exit status 2, the misspelt flag
# named on stderr, nothing on stdout and no file written (no trial ran).
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BINARY}" ${ARGS}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "error: unknown flag --${FLAG}\n")
  message(FATAL_ERROR "stderr does not name --${FLAG}:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "a run started before the flag check:\n${out}")
endif()
file(GLOB written "${WORKDIR}/*")
if(written)
  message(FATAL_ERROR "files written before the flag check: ${written}")
endif()
