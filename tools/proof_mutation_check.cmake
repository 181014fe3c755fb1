# End-to-end certificate round trip plus the proof-mutation negative test:
#   1. sat_solve emits a DRAT proof for an unsat pigeonhole instance (exit 20),
#   2. drat_check verifies the pristine proof (exit 0, "s VERIFIED"),
#   3. the proof is truncated to its first addition step followed by a claimed
#      empty clause, and drat_check must reject it (exit 1, "s NOT VERIFIED").
# A checker that trusted the claimed conclusion instead of re-deriving the
# conflict would certify nothing. (Truncation rather than literal flipping:
# under full RAT checking a flipped literal can yield a clause that is
# legitimately RAT, i.e. a different but valid proof.)
#
# Variables: SAT_SOLVE, DRAT_CHECK (executables), CNF (unsat instance with no
# unit clauses), WORK_DIR (scratch directory).
file(MAKE_DIRECTORY "${WORK_DIR}")
set(proof "${WORK_DIR}/proof.drat")
set(mutated "${WORK_DIR}/proof_mutated.drat")

execute_process(
  COMMAND ${SAT_SOLVE} --proof ${proof} ${CNF}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 20)
  message(FATAL_ERROR "sat_solve: expected unsat exit 20, got '${rc}'\n${out}")
endif()

execute_process(
  COMMAND ${DRAT_CHECK} ${CNF} ${proof}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "s VERIFIED")
  message(FATAL_ERROR "drat_check rejected a solver-emitted proof (exit '${rc}'):\n${out}")
endif()

# Truncate the proof to its first addition step (the first line of a
# solver proof is always a learned clause) plus a claimed empty
# clause. One learned clause cannot make the instance UP-inconsistent — the
# CNF has no unit clauses, so nothing propagates — hence the empty clause is
# neither RUP nor RAT and the checker must refuse the claimed conclusion.
file(STRINGS ${proof} proof_lines)
list(GET proof_lines 0 first_line)
if(first_line MATCHES "^d ")
  message(FATAL_ERROR "proof starts with a deletion, not an addition:\n${first_line}")
endif()
file(WRITE ${mutated} "${first_line}\n0\n")

execute_process(
  COMMAND ${DRAT_CHECK} ${CNF} ${mutated}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1 OR NOT out MATCHES "s NOT VERIFIED")
  message(FATAL_ERROR "drat_check accepted a mutated proof (exit '${rc}'):\n${out}")
endif()
