#!/bin/sh
# The five line counts and the flag count ROADMAP item 7 and every
# simplicity PR quote, so they are a command instead of arithmetic redone
# by hand (make loc).
set -eu
cd "$(dirname "$0")/.."
count() { cat "$@" | wc -l | tr -d ' '; }
echo "non-test Go outside benchmark/: $(count $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*'))"
echo "non-test assembly outside benchmark/: $(count /dev/null $(find . -name '*.s' ! -path './benchmark/*' ! -path './.bench_build/*'))"
echo "scripts/*.sh:                   $(count scripts/*.sh)"
echo ".github/workflows/check.yml:    $(count .github/workflows/check.yml)"
echo "Makefile:                       $(count Makefile)"
# Flag registrations: every flag a command-line user can set, counted where
# it is registered, so the shared store and observability sets count once.
echo "flags in cmd/* and internal/cli: $(cat $(find cmd internal/cli -name '*.go' ! -name '*_test.go') |
	grep -cE '(^|[^A-Za-z0-9_])(fs|flag)\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\(')"
