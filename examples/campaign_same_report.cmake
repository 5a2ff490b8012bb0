# Checks that two campaign stores of the same spec give byte-identical
# `bansim_campaign report` stdout and `report --csv` files — the in-process
# (--workers 0) and multi-process runs are one population path.
#
# usage: cmake -DCLI=<bansim_campaign> -DSTORE_A=<dir> -DSTORE_B=<dir>
#              -DOUT=<scratch dir> -P campaign_same_report.cmake
file(MAKE_DIRECTORY ${OUT})
foreach(side A B)
  execute_process(COMMAND ${CLI} report ${STORE_${side}} --csv ${OUT}/${side}.csv
                  OUTPUT_FILE ${OUT}/${side}.txt RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report on ${STORE_${side}} exited ${rc}")
  endif()
endforeach()
foreach(ext txt csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/A.${ext}
                          ${OUT}/B.${ext}
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${OUT}/A.${ext} and ${OUT}/B.${ext} differ")
  endif()
endforeach()
