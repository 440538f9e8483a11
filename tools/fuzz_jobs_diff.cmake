# Byte-identical --jobs guarantee, asserted by diffing raw stdout.
#
# Runs escra-fuzz twice with identical arguments — --jobs 1 and --jobs 8 —
# and fails unless both the exit codes and the captured stdout match
# byte-for-byte. Invoked via `cmake -DFUZZ=<binary> [-DEXTRA=...]
# [-DDIGEST=...] -P` from a ctest entry; EXTRA is a ;-list of additional
# flags (e.g. the fault profile), letting one script cover every overlay.
# DIGEST, when set, is the SHA-256 of the --jobs 1 stdout recorded at an
# earlier commit, so the sweep's output is also pinned across commits.
if(NOT DEFINED FUZZ)
  message(FATAL_ERROR "fuzz_jobs_diff: pass -DFUZZ=<path to escra-fuzz>")
endif()
set(BASE_ARGS --runs 25 --seed 42)
if(DEFINED EXTRA)
  list(APPEND BASE_ARGS ${EXTRA})
endif()

execute_process(COMMAND ${FUZZ} ${BASE_ARGS} --jobs 1
                OUTPUT_VARIABLE out_serial RESULT_VARIABLE rc_serial)
execute_process(COMMAND ${FUZZ} ${BASE_ARGS} --jobs 8
                OUTPUT_VARIABLE out_parallel RESULT_VARIABLE rc_parallel)

if(NOT rc_serial EQUAL 0)
  message(FATAL_ERROR "fuzz_jobs_diff: --jobs 1 run failed (rc ${rc_serial})")
endif()
if(NOT rc_parallel EQUAL 0)
  message(FATAL_ERROR "fuzz_jobs_diff: --jobs 8 run failed (rc ${rc_parallel})")
endif()
if(NOT out_serial STREQUAL out_parallel)
  message(FATAL_ERROR "fuzz_jobs_diff: stdout diverged between --jobs 1 and "
                      "--jobs 8\n--- jobs 1 ---\n${out_serial}\n"
                      "--- jobs 8 ---\n${out_parallel}")
endif()
if(DEFINED DIGEST)
  string(SHA256 digest "${out_serial}")
  if(NOT digest STREQUAL DIGEST)
    message(FATAL_ERROR "fuzz_jobs_diff: stdout SHA-256 ${digest} differs "
                        "from the pinned ${DIGEST}\n${out_serial}")
  endif()
endif()
message(STATUS "fuzz_jobs_diff: ${BASE_ARGS} — stdout byte-identical "
               "across --jobs 1 and --jobs 8")
