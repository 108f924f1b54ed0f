# Runs the n=3 bprc explorer cell `--inputs 0,1,1 --depth 14
# --coin-flips 2` in every explorer mode and fails unless each prints
# `schedule digest: ${EXPECT}`: serially, with --jobs 2 (batched grading,
# ordered delivery), with --isolate (a fork probe before every
# execution), and cut by --max-executions 400 into a checkpoint that
# --resume then finishes. The deeper cell `--depth 18 --coin-flips 3`
# must print `schedule digest: ${EXPECT_DEEP}`.
#
#   cmake -DEXPLORE=<path to bprc_explore> -DWORKDIR=<scratch dir>
#         -DEXPECT=<hex> -DEXPECT_DEEP=<hex> -P explore_digest_parity.cmake
foreach(var EXPLORE WORKDIR EXPECT EXPECT_DEEP)
  if(NOT ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(cell --protocol bprc --n 3 --inputs 0,1,1 --depth 14 --coin-flips 2)
set(frontier ${WORKDIR}/explore_digest_parity.bprc-frontier)
file(REMOVE ${frontier})

# run(<label> <expected digest> <args...>): one explorer run, exit 0.
function(run label expect)
  execute_process(COMMAND ${EXPLORE} ${ARGN} --stats
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${label} exited ${rc}:\n${out}${err}")
  endif()
  string(REGEX MATCH "schedule digest: [0-9a-f]+" digest "${out}")
  if(NOT digest STREQUAL "schedule digest: ${expect}")
    message(FATAL_ERROR "${label}: '${digest}', pinned ${expect}:\n${out}")
  endif()
  message(STATUS "${label}: ${digest}")
endfunction()

run("serial" ${EXPECT} ${cell})
run("--jobs 2" ${EXPECT} ${cell} --jobs 2)
run("--isolate" ${EXPECT} ${cell} --isolate)

# The cut run stops on its valve (exit 0: the checkpoint resumes it) with
# a partial digest; only the resumed run must land on the pinned one.
execute_process(COMMAND ${EXPLORE} ${cell} --max-executions 400
                        --checkpoint-out ${frontier}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "400 executions.*\\[incomplete\\]")
  message(FATAL_ERROR "cut run exited ${rc}:\n${out}${err}")
endif()
run("--resume" ${EXPECT} ${cell} --resume ${frontier})
file(REMOVE ${frontier})

run("depth 18" ${EXPECT_DEEP}
    --protocol bprc --n 3 --inputs 0,1,1 --depth 18 --coin-flips 3)
