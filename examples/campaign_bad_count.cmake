# Checks that `bansim_campaign run` rejects a bad numeric option value with
# exit 2 before it creates a campaign.  The spec is one patient in one
# shard, so even a parser that let the value through would start at most
# one worker.
#
# usage: cmake -DCLI=<bansim_campaign> -DSTORE=<dir> -DOPTION=<--flag>
#              -DVALUE=<text> -P campaign_bad_count.cmake
file(REMOVE_RECURSE ${STORE})
execute_process(
  COMMAND ${CLI} run ${STORE} --patients 1 --shard-size 1 --measure-ms 100
          ${OPTION} ${VALUE}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${OPTION} ${VALUE}: expected exit 2, got ${rc}")
endif()
if(EXISTS ${STORE}/manifest.ini)
  message(FATAL_ERROR "${OPTION} ${VALUE}: a manifest was written")
endif()
