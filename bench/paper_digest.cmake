# Pins a deterministic binary's stdout across commits: the paper benches,
# the control-loop trace and two escra-sim runs.
#
# Runs the bench once and fails unless it exits 0 and its stdout hashes to
# DIGEST, the SHA-256 recorded at an earlier commit. Invoked via
# `cmake -DBENCH=<binary> [-DARGS=...] -DDIGEST=<sha256> -P` from a ctest
# entry, the way tools/fuzz_jobs_diff.cmake pins the fuzz sweeps; ARGS is an
# optional ;-list of arguments for the binary (none by default), so one
# script also pins the stdout of an escra-sim run.
if(NOT DEFINED BENCH OR NOT DEFINED DIGEST)
  message(FATAL_ERROR "paper_digest: pass -DBENCH=<binary> -DDIGEST=<sha256>")
endif()

execute_process(COMMAND ${BENCH} ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paper_digest: ${BENCH} failed (rc ${rc})\n${out}")
endif()
string(SHA256 digest "${out}")
if(NOT digest STREQUAL DIGEST)
  message(FATAL_ERROR "paper_digest: ${BENCH} stdout SHA-256 ${digest} "
                      "differs from the pinned ${DIGEST}\n${out}")
endif()
message(STATUS "paper_digest: ${BENCH} stdout matches the pinned SHA-256")
