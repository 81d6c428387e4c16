#!/bin/sh
# The four line counts ROADMAP item 7 and every simplicity PR quote, so
# they are a command instead of arithmetic redone by hand (make loc).
set -eu
cd "$(dirname "$0")/.."
count() { cat "$@" | wc -l | tr -d ' '; }
echo "non-test Go outside benchmark/: $(count $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*'))"
echo "scripts/*.sh:                   $(count scripts/*.sh)"
echo ".github/workflows/check.yml:    $(count .github/workflows/check.yml)"
echo "Makefile:                       $(count Makefile)"
