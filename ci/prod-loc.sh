#!/usr/bin/env bash
# Prints the module's production and test Go line counts, the figures
# CHANGES.md tracks per change. Production is every .go file except
# *_test.go; both counts leave out perfbench/ (the benchmark's own
# module) and .bench_build/ (its build output).
#
#   ci/prod-loc.sh            # counts the checkout this script lives in
#   ci/prod-loc.sh <dir>      # counts another checkout
set -euo pipefail
root=${1:-"$(dirname "$0")/.."}
cd "$root"
count() {
	find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*' "$@" -print0 |
		xargs -0 cat | wc -l
}
echo "production $(count -not -name '*_test.go')"
echo "test $(count -name '*_test.go')"
