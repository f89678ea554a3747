# The asman_cli contract. Run as
#   cmake -DCLI=<path to asman_cli> -P tests/cli.cmake
# A malformed number, an unknown name or flag, and a flag the run would
# ignore exit 2 before any report reaches stdout; --list exits 0 and prints
# the class list of its family.
set(failures "")

function(expect_usage_error)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(LENGTH "${out}" bytes)
  if(NOT rc STREQUAL "2" OR bytes GREATER 0)
    list(JOIN ARGN " " args)
    set(failures
        "${failures}\n  asman_cli ${args}: exit ${rc}, ${bytes} bytes on stdout"
        PARENT_SCOPE)
  endif()
endfunction()

function(expect_list first_line)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}\n" "\n" eol)
  string(SUBSTRING "${out}" 0 ${eol} got)
  if(NOT rc STREQUAL "0" OR NOT got STREQUAL first_line)
    list(JOIN ARGN " " args)
    set(failures
        "${failures}\n  asman_cli ${args}: exit ${rc}, first line '${got}'"
        PARENT_SCOPE)
  endif()
endfunction()

# Malformed numbers and unknown names.
expect_usage_error(--bench ZZ)
expect_usage_error(--sched fifo)
expect_usage_error(--weight abc)
expect_usage_error(--horizon abc)
expect_usage_error(--seed -5)
expect_usage_error(--seed 42x)
expect_usage_error(--seed=18446744073709551616)
expect_usage_error(cluster --seed=42x)
expect_usage_error(cluster --chaos --vms=zz)
expect_usage_error(chaos --class=no-such-class)
expect_usage_error(adversary --class=ipi-loss)
expect_usage_error(--seed)
expect_usage_error(--relaxed=1)
# Unknown families and flags.
expect_usage_error(no-such-family)
expect_usage_error(--no-such-flag)
expect_usage_error(chaos --no-such-flag)
expect_usage_error(chaos stray)
# Values outside what the run can honour.
expect_usage_error(--weight 0)
expect_usage_error(--delta 64)
expect_usage_error(--horizon -1)
expect_usage_error(chaos --vms=2)
expect_usage_error(topology --vms=2)
expect_usage_error(contention --vms=3)
expect_usage_error(churn --vms=0)
# Flags the run would ignore.
expect_usage_error(adversary --vms=4)
expect_usage_error(cluster --vms=zz)
expect_usage_error(cluster --vms=16)
expect_usage_error(churn --saturated --class=hotplug)
expect_usage_error(churn --saturated --vms=3)
expect_usage_error(--bench CG --warehouses 8)
expect_usage_error(chaos --list --seed=7)

foreach(family chaos churn topology contention)
  expect_list("chaos classes:" ${family} --list)
endforeach()
expect_list("attack classes:" adversary --list)

if(failures)
  message(FATAL_ERROR "asman_cli broke its contract:${failures}")
endif()
