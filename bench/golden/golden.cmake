# Golden outputs: every bench and example runs as a ctest labelled `bench`,
# and its stdout must match bench/golden/<test>.out byte for byte (see
# check.cmake). The three benches that print wall-clock numbers are also
# labelled `slow`, and only their SIM lines are compared.
#
# After an intentional change to simulated output, regenerate every golden
# with one command and review the diff:
#
#   cmake --build build --target update_goldens
set(CSAR_GOLDEN_DIR ${CMAKE_SOURCE_DIR}/bench/golden)

# csar_golden(<test> <target> [SIM_ONLY] [INPUT <stdin file>] [ARGS <arg>]
#             [ALLOW_RC <exit code>])
function(csar_golden test target)
  cmake_parse_arguments(G "SIM_ONLY" "INPUT;ARGS;ALLOW_RC" "" ${ARGN})
  set(defs -DBIN=$<TARGET_FILE:${target}>
           -DGOLDEN=${CSAR_GOLDEN_DIR}/${test}.out
           -DARGS=${G_ARGS} -DSIM_ONLY=${G_SIM_ONLY})
  if(G_INPUT)
    list(APPEND defs -DINPUT=${G_INPUT})
  endif()
  if(DEFINED G_ALLOW_RC)
    list(APPEND defs -DALLOW_RC=${G_ALLOW_RC})
  endif()
  add_test(NAME ${test}
           COMMAND ${CMAKE_COMMAND} ${defs} -P ${CSAR_GOLDEN_DIR}/check.cmake)
  if(G_SIM_ONLY)
    set_tests_properties(${test} PROPERTIES LABELS "bench;slow")
  else()
    set_tests_properties(${test} PROPERTIES LABELS bench)
  endif()
  set_property(GLOBAL APPEND PROPERTY CSAR_GOLDEN_REGEN
               COMMAND ${CMAKE_COMMAND} ${defs} -DREGEN=ON
                       -P ${CSAR_GOLDEN_DIR}/check.cmake)
  set_property(GLOBAL APPEND PROPERTY CSAR_GOLDEN_TARGETS ${target})
endfunction()

foreach(b bench_ablate_adaptive bench_ablate_collective
          bench_ablate_compaction bench_ablate_erasure
          bench_ablate_fault_storm bench_ablate_fleet
          bench_ablate_lock_scaling bench_ablate_manager_journal
          bench_ablate_mirror_reads bench_ablate_raid4 bench_ablate_rebuild
          bench_ablate_rpc_batching bench_ablate_stripe_unit
          bench_fig1_disk_trend bench_fig3_locking bench_fig4_fullstripe
          bench_fig4_smallwrite bench_fig5_romio bench_fig6_btio_classb
          bench_fig7_btio_classc bench_fig8_apps bench_sec52_write_buffering
          bench_table2_storage)
  csar_golden(${b} ${b})
endforeach()
csar_golden(bench_sim_scale bench_sim_scale SIM_ONLY
            ARGS --out=${CMAKE_BINARY_DIR}/bench/sim_scale_golden.json)
csar_golden(bench_ablate_parity_kernel bench_ablate_parity_kernel SIM_ONLY)
# Its tracing-slowdown CHECK is a wall-clock ratio and exits 1 on a loaded
# host; that exit code is waived, a crash is not.
csar_golden(bench_ablate_obs_overhead bench_ablate_obs_overhead SIM_ONLY
            ALLOW_RC 1)

foreach(e quickstart checkpoint_app failure_recovery concurrent_writers
          storage_planner fault_storm)
  csar_golden(example_${e} ${e})
endforeach()
csar_golden(example_csar_shell csar_shell
            INPUT ${CSAR_GOLDEN_DIR}/csar_shell.in)

get_property(regen GLOBAL PROPERTY CSAR_GOLDEN_REGEN)
get_property(regen_deps GLOBAL PROPERTY CSAR_GOLDEN_TARGETS)
add_custom_target(update_goldens ${regen} DEPENDS ${regen_deps}
                  COMMENT "Regenerating bench/golden/*.out"
                  VERBATIM)
