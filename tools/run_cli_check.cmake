# ctest helper: runs a CLI and asserts its exact exit code (and optionally an
# output regex). Needed because the SAT-competition convention uses nonzero
# exit codes (10 = sat, 20 = unsat) that plain add_test would count as
# failures.
#
# Variables: CLI (executable), ARGS (;-list), EXPECT_CODE, EXPECT_OUT (stdout
# regex, optional), EXPECT_ERR (stderr regex, optional).
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${CLI} ${arg_list}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL ${EXPECT_CODE})
  message(FATAL_ERROR "expected exit ${EXPECT_CODE}, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECT_OUT AND NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUT}':\n${out}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERR}':\n${err}")
endif()
