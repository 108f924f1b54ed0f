# Runs one bprc_torture campaign at --jobs 1 and at --jobs 4 and fails
# unless both print the same `digest=` line. The cell is n=8 bprc, whose
# run lengths are heavy-tailed, so at --jobs 4 the executor's window runs
# well ahead of delivery: completion order differs from generation order,
# and only ordered delivery keeps the digest equal.
#
#   cmake -DTORTURE=<path to bprc_torture> -P jobs_digest_parity.cmake
if(NOT TORTURE)
  message(FATAL_ERROR "pass -DTORTURE=<path to bprc_torture>")
endif()

set(cell --protocol bprc --n 8 --seeds 2 --seed 7)
foreach(jobs 1 4)
  execute_process(COMMAND ${TORTURE} ${cell} --jobs ${jobs}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--jobs ${jobs} exited ${rc}:\n${out}")
  endif()
  string(REGEX MATCH "digest=0x[0-9a-f]+" digest_${jobs} "${out}")
  if(NOT digest_${jobs})
    message(FATAL_ERROR "--jobs ${jobs} printed no digest= line:\n${out}")
  endif()
endforeach()

if(NOT digest_1 STREQUAL digest_4)
  message(FATAL_ERROR "--jobs 1 ${digest_1} != --jobs 4 ${digest_4}")
endif()
message(STATUS "--jobs 1 and --jobs 4: ${digest_1}")
