#!/usr/bin/env bash
# Usage: bash .github/listed-tests.sh 'TestA|TestB' <packages...>
#
# Fails unless every name in the |-separated list is a test of the packages.
# The CI steps that run tests by a -run pattern of names call it first, so a
# rename cannot leave such a step passing on fewer tests than it lists.
set -euo pipefail
names=$1
shift
found=$(go test -list "^($names)\$" "$@" | { grep '^Test' || true; } | sort -u | wc -l)
want=$(tr '|' '\n' <<< "$names" | wc -l)
if [ "$found" -ne "$want" ]; then
  echo "the -run pattern lists $want tests; $found of them exist in $*" >&2
  exit 1
fi
