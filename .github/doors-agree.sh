#!/usr/bin/env bash
# Compare crnsim's local output with the same run over each address in
# $DOORS (a daemon socket, a gateway socket, a gateway URL), for every
# engine: final state, a 4-run ensemble for the stochastic engines, and
# the streamed --csv trace. Run from the repository root after
# `dune build bin/crnsim.exe`; exits non-zero on the first difference.
set -eu
crnsim=./_build/default/bin/crnsim.exe
for eng in ode ssa tau hybrid; do
  for mode in final runs csv; do
    args="--engine $eng --seed 7 -t 20"
    case $mode in
      runs) [ "$eng" = ode ] && continue; args="$args --runs 4" ;;
      csv) args="$args --csv doors.csv" ;;
    esac
    $crnsim counter2 $args > doors-local.out 2> /dev/null
    [ "$mode" != csv ] || mv doors.csv doors-local.csv
    for door in $DOORS; do
      $crnsim counter2 $args --connect "$door" > doors-remote.out 2> /dev/null
      cmp doors-local.out doors-remote.out
      [ "$mode" != csv ] || cmp doors-local.csv doors.csv
    done
    echo "$eng $mode: local = $DOORS"
  done
done
rm -f doors-local.out doors-remote.out doors-local.csv doors.csv
