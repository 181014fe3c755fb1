# Negative tests for simplifier-produced DRAT proofs. The inprocessing engine
# (BVE) emits its own addition and deletion steps; a checker that
# tolerated a missing elimination resolvent or a bogus deletion would certify
# unsound simplification. On an instance engineered so bounded variable
# elimination must fire (CNF with an auxiliary definition variable):
#   1. sat_solve (simplify on) reports unsat with >= 1 eliminated variable and
#      streams a DRAT proof,
#   2. drat_check verifies the pristine proof,
#   3. dropping the first addition step (the BVE resolvent) must be rejected,
#   4. retargeting the first deletion step at the last CNF clause (deleting a
#      clause the derivation still needs, while keeping a BVE parent alive)
#      must be rejected.
#
# Variables: SAT_SOLVE, DRAT_CHECK (executables), CNF (unsat instance whose
# last clause is load-bearing), WORK_DIR (scratch directory).
file(MAKE_DIRECTORY "${WORK_DIR}")
set(proof "${WORK_DIR}/proof.drat")

execute_process(
  COMMAND ${SAT_SOLVE} --proof ${proof} ${CNF}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 20)
  message(FATAL_ERROR "sat_solve: expected unsat exit 20, got '${rc}'\n${out}")
endif()
if(NOT out MATCHES "c simplify: vars-eliminated=[1-9]")
  message(FATAL_ERROR "expected at least one eliminated variable:\n${out}")
endif()

execute_process(
  COMMAND ${DRAT_CHECK} ${CNF} ${proof}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "s VERIFIED")
  message(FATAL_ERROR "drat_check rejected a simplifier proof (exit '${rc}'):\n${out}")
endif()

# Split the text proof into lines; identify the first addition (with simplify
# on, the BVE resolvent of the auxiliary variable) and the first deletion
# (one of its parents).
file(STRINGS ${proof} lines)
set(first_add -1)
set(first_del -1)
set(index 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^d " AND first_del EQUAL -1)
    set(first_del ${index})
  elseif(NOT line MATCHES "^d " AND first_add EQUAL -1)
    set(first_add ${index})
  endif()
  math(EXPR index "${index} + 1")
endforeach()
if(first_add EQUAL -1 OR first_del EQUAL -1)
  message(FATAL_ERROR "proof has no addition or no deletion step:\n${lines}")
endif()

# Read the last clause of the CNF so the corrupted deletion targets a real,
# still-needed input clause.
file(STRINGS ${CNF} cnf_lines)
set(last_clause "")
foreach(line IN LISTS cnf_lines)
  if(line MATCHES "^[-0-9]" AND NOT line MATCHES "^p ")
    set(last_clause "${line}")
  endif()
endforeach()
if(last_clause STREQUAL "")
  message(FATAL_ERROR "could not find a clause line in ${CNF}")
endif()

function(write_mutated path skip_index replace_index replacement)
  set(text "")
  set(index 0)
  foreach(line IN LISTS lines)
    if(index EQUAL skip_index)
      # dropped
    elseif(index EQUAL replace_index)
      string(APPEND text "${replacement}\n")
    else()
      string(APPEND text "${line}\n")
    endif()
    math(EXPR index "${index} + 1")
  endforeach()
  file(WRITE ${path} "${text}")
endfunction()

# Mutation A: drop the elimination resolvent. Its parents are still deleted
# by the following steps, so the remaining active set no longer implies the
# conclusion and a later core step must fail its RUP/RAT check.
set(dropped "${WORK_DIR}/proof_dropped_resolvent.drat")
write_mutated(${dropped} ${first_add} -1 "")
execute_process(
  COMMAND ${DRAT_CHECK} ${CNF} ${dropped}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1 OR NOT out MATCHES "s NOT VERIFIED")
  message(FATAL_ERROR
    "drat_check accepted a proof missing a BVE resolvent (exit '${rc}'):\n${out}")
endif()

# Mutation B: corrupt the first deletion to remove the last CNF clause
# instead of the BVE parent. The instance is minimally unsatisfiable without
# the auxiliary split, so losing that clause makes the active set satisfiable
# and the conclusion underivable.
set(corrupted "${WORK_DIR}/proof_corrupt_deletion.drat")
write_mutated(${corrupted} -1 ${first_del} "d ${last_clause}")
execute_process(
  COMMAND ${DRAT_CHECK} ${CNF} ${corrupted}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1 OR NOT out MATCHES "s NOT VERIFIED")
  message(FATAL_ERROR
    "drat_check accepted a proof with a corrupted deletion (exit '${rc}'):\n${out}")
endif()
