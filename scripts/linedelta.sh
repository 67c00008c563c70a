#!/usr/bin/env bash
# linedelta.sh — net non-test Go line delta of the working tree against a
# base revision: lines added and removed in .go files, excluding
# _test.go files and the perfbench/ module.
#
#   scripts/linedelta.sh <base-ref>      e.g. scripts/linedelta.sh main
#
# Tracked files are compared as they stand in the working tree; stage new
# files (git add) first so they are counted. A negative net figure means
# the change removed more code than it added.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi

git diff --numstat "$1" -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench/' |
  awk '{ add += $1; del += $2 }
       END { printf "added   %d\nremoved %d\nnet     %+d\n", add, del, add - del }'
