#!/bin/sh
# Profiles one ringclu_sim run with gprof.
#
#   tools/profile_run.sh <config> <benchmark> [key=value...]
#   tools/profile_run.sh Conv_8clus_1bus_2IW ammp instrs=200000
#
# Builds ringclu_sim in the `profile` CMake preset (Release, -pg) under
# build-profile/, runs the simulation in a temporary directory (the run
# writes gmon.out there) and prints the top of gprof's flat profile.
# PROFILE_LINES sets how many lines are shown (default 30).
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 <config> <benchmark> [key=value...]" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
cmake --preset profile >/dev/null
cmake --build --preset profile --target ringclu_sim -j >/dev/null
sim="$root/build-profile/tools/ringclu_sim"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
(cd "$scratch" && "$sim" "$@" >/dev/null)
gprof -b -p "$sim" "$scratch/gmon.out" | head -n "${PROFILE_LINES:-30}"
