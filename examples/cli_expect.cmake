# Runs CLI with the space-separated ARGS and checks the front end's
# stream contract: exit status EXIT, MATCH (a regex) on the stream that
# carries the usage text (stdout for exit 0, else stderr), and nothing
# on the other stream.
#   cmake -DCLI=gridctl -DARGS="plane --help" -DEXIT=0 -DMATCH=usage \
#         -P cli_expect.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(EXIT EQUAL 0)
  set(text "${out}")
  set(other "${err}")
else()
  set(text "${err}")
  set(other "${out}")
endif()
if(NOT status STREQUAL EXIT OR NOT text MATCHES "${MATCH}"
   OR NOT other STREQUAL "")
  message(FATAL_ERROR "gridctl ${ARGS}: expected exit ${EXIT} and "
          "'${MATCH}' on one stream only, got exit ${status}\n"
          "stdout:\n${out}\nstderr:\n${err}")
endif()
