# ctest helper: end-to-end smoke of the batch analysis server. Starts
# scada_serve, pipes a small batch whose third request repeats the first
# (guaranteed cache hit: a barrier separates them), plus a deliberately
# undersized deadline that must degrade to a timeout/unknown response, and
# asserts the verdicts, the cache-hit flag and the reported hit count.
#
# Variables: SERVE (scada_serve executable), WORK_DIR.
file(MAKE_DIRECTORY ${WORK_DIR})
set(requests ${WORK_DIR}/requests.jsonl)
set(responses ${WORK_DIR}/responses.jsonl)

file(WRITE ${requests}
"{\"id\":1,\"op\":\"verify\",\"scenario\":{\"builtin\":\"case_study_fig3\"},\"property\":\"observability\",\"spec\":{\"k1\":1,\"k2\":1}}
{\"id\":\"b1\",\"op\":\"barrier\"}
{\"id\":2,\"op\":\"verify\",\"scenario\":{\"builtin\":\"case_study_fig3\"},\"property\":\"observability\",\"spec\":{\"k1\":2,\"k2\":1}}
{\"id\":\"b2\",\"op\":\"barrier\"}
{\"id\":3,\"op\":\"verify\",\"scenario\":{\"builtin\":\"case_study_fig3\"},\"property\":\"observability\",\"spec\":{\"k1\":1,\"k2\":1}}
{\"id\":4,\"op\":\"enumerate\",\"scenario\":{\"synth\":{\"buses\":30,\"seed\":7}},\"property\":\"observability\",\"spec\":{\"k\":2},\"max_vectors\":256,\"deadline_ms\":0.01}
{\"id\":5,\"op\":\"security-index\",\"scenario\":{\"builtin\":\"case_study_fig3\"},\"property\":\"secured_observability\"}
{\"id\":\"b3\",\"op\":\"barrier\"}
{\"id\":\"s\",\"op\":\"stats\"}
")

execute_process(
  COMMAND ${SERVE} --threads 2
  INPUT_FILE ${requests}
  OUTPUT_FILE ${responses}
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scada_serve exited with '${rc}'\nstderr:\n${err}")
endif()

file(READ ${responses} out)
message(STATUS "responses:\n${out}")

# (1,1)-observability of the Fig. 3 case study is resilient (unsat)…
if(NOT out MATCHES "\"id\":1,\"ok\":true,[^\n]*\"status\":\"done\",[^\n]*\"result\":\"unsat\"")
  message(FATAL_ERROR "request 1: expected a done/unsat verdict")
endif()
# …(2,1) is not (sat)…
if(NOT out MATCHES "\"id\":2,\"ok\":true,[^\n]*\"status\":\"done\",[^\n]*\"result\":\"sat\"")
  message(FATAL_ERROR "request 2: expected a done/sat verdict")
endif()
# …and the repeat of request 1 must be served from the verdict cache with
# the same answer.
if(NOT out MATCHES "\"id\":3,\"ok\":true,[^\n]*\"cache_hit\":true,[^\n]*\"result\":\"unsat\"")
  message(FATAL_ERROR "request 3: expected a cache-hit unsat verdict")
endif()
# The undersized deadline degrades to timeout/unknown — a response, never a
# crash or a wrong verdict.
if(NOT out MATCHES "\"id\":4,\"ok\":true,[^\n]*\"status\":\"timeout\",[^\n]*\"result\":\"unknown\"")
  message(FATAL_ERROR "request 4: expected a timeout/unknown response")
endif()
if(NOT out MATCHES "\"id\":4,[^\n]*\"diagnostics\":")
  message(FATAL_ERROR "request 4: expected timeout diagnostics")
endif()
# The optimization op answers with the Fig. 3 security index (2: the
# cheapest attack on secured observability fails two field devices).
if(NOT out MATCHES "\"id\":5,\"ok\":true,[^\n]*\"security_index\":{\"attackable\":true,\"index\":2,")
  message(FATAL_ERROR "request 5: expected a security index of 2")
endif()
# The stats snapshot must report at least one cache hit…
if(NOT out MATCHES "\"op\":\"stats\",\"cache\":{\"hits\":[1-9]")
  message(FATAL_ERROR "stats: expected a non-zero cache hit count")
endif()
# …and surface the optimization metrics fed by the security-index request.
if(NOT out MATCHES "\"opt.solve_ms\":{\"count\":[1-9]")
  message(FATAL_ERROR "stats: expected opt.solve_ms histogram samples")
endif()
if(NOT out MATCHES "\"opt.maxsat_bound_tightenings\":[1-9]")
  message(FATAL_ERROR "stats: expected non-zero opt.maxsat_bound_tightenings")
endif()
# …and the propagation hot-loop counters fed by the CDCL verify requests
# (request 1 runs on the default CDCL backend, so all three must be live).
if(NOT out MATCHES "\"smt.propagations\":[1-9]")
  message(FATAL_ERROR "stats: expected non-zero smt.propagations")
endif()
if(NOT out MATCHES "\"smt.watch_inspections\":[1-9]")
  message(FATAL_ERROR "stats: expected non-zero smt.watch_inspections")
endif()
if(NOT out MATCHES "\"smt.blocker_hits\":[1-9]")
  message(FATAL_ERROR "stats: expected non-zero smt.blocker_hits")
endif()
# …and the search-heuristic export. Presence (not non-zero) is asserted for
# the activity counters — the small smoke instances may legitimately finish
# without a blocked restart or a rephase — but all keys must exist, and the
# tier gauges must appear in the gauges section.
foreach(key "smt.restarts" "smt.restarts_blocked" "smt.rephases")
  if(NOT out MATCHES "\"${key}\":[0-9]")
    message(FATAL_ERROR "stats: expected ${key} counter to be exported")
  endif()
endforeach()
foreach(key "smt.db_core" "smt.db_tier2" "smt.db_local")
  if(NOT out MATCHES "\"${key}\":[0-9]")
    message(FATAL_ERROR "stats: expected ${key} gauge to be exported")
  endif()
endforeach()
