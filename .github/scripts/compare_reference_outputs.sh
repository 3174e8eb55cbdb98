#!/usr/bin/env bash
# Run the six reference commands from two source trees and compare what
# they leave: every CSV, JSON and SVG they write, their stdout, stderr and
# exit code.
#
#   bash compare_reference_outputs.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Each command runs in a fresh directory of its own, WORK_DIR/SIDE/NAME,
# beside a copy of its tree's configs/, with that tree's src/ first on
# PYTHONPATH. Prints one line per output that differs, or is written by one
# side only. Exits 0 when every output is byte-identical, 1 when one
# differs, and 2 on a usage error or when WORK_DIR already exists.
set -u

if [ "$#" -ne 3 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE WORK_DIR" >&2
  exit 2
fi
base=$(cd "$1" && pwd) || exit 2
head=$(cd "$2" && pwd) || exit 2
work=$3
mkdir -p "$(dirname "$work")" && mkdir "$work" || exit 2

# the sweeps of sweep_linear.yaml march 64 points, by the matmul route, and
# the sweeps of decay.yaml their 128 points as one ensemble, by the FFT route:
# over k every member is coupled (a1 = a2 = 1) and only w+ is transformed,
# over (a1, a2) on the a3 = 0 circle the members mix and both branches are
names=(run verify sweep-k sweep-k-a3 sweep-decay-k sweep-decay-mixed)
commands=(
  "run configs/decay.yaml"
  "verify configs/verify.yaml"
  "sweep configs/sweep_linear.yaml --axis k=0.25,0.5,1.0"
  "sweep configs/sweep_linear.yaml --axis k=0.25,0.5,0.75,1.0,1.25 --axis a3=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"
  "sweep configs/decay.yaml --axis k=0.25,0.5,1.0"
  "sweep configs/decay.yaml --axis a3=0 --axis a1=0,1 --axis a2=0,1"
)

for side in base head; do
  tree=${!side}
  for i in "${!names[@]}"; do
    dir="$work/$side/${names[$i]}"
    mkdir -p "$dir"
    cp -R "$tree/configs" "$dir/configs"
    code=0
    # the argument lists hold no quoted words, so word splitting is intended
    # shellcheck disable=SC2086
    (cd "$dir" && PYTHONPATH="$tree/src${PYTHONPATH:+:$PYTHONPATH}" \
      python -m ggkdv.cli ${commands[$i]} >stdout 2>stderr) || code=$?
    echo "$code" >"$dir/exit_code"
  done
done

outputs() {  # every file a command left, but the configs it read
  (cd "$1" && find . -path ./configs -prune -o -type f -print)
}

status=0
for name in "${names[@]}"; do
  while IFS= read -r file; do
    if ! cmp -s "$work/base/$name/$file" "$work/head/$name/$file"; then
      echo "$name: ${file#./} differs"
      status=1
    fi
  done < <({ outputs "$work/base/$name"; outputs "$work/head/$name"; } \
             | sort -u)
done
exit "$status"
