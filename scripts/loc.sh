#!/bin/sh
# The five line counts, the flag count, the exported-declaration count and
# the settable-field count ROADMAP item 7 and every simplicity PR quote, so
# they are a command instead of arithmetic redone by hand (make loc).
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
# Exported declarations in non-test Go outside benchmark/: top-level
# exported funcs, methods, types, vars and consts, the entries of a
# grouped const/var/type block and the fields and methods of an exported
# struct or interface: the surface a simplicity PR removes, beside its lines.
echo "exported declarations outside benchmark/: $(cat $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*') |
	awk '/^(const|var|type) \($/ { g = 1 } g && /^\)/ { g = 0 } /^type [A-Z][A-Za-z0-9_]* (struct|interface) \{$/ { b = 1 } b && /^\}/ { b = 0 }
		/^(func (\([^)]*\) )?|type |var |const )[A-Z]/ || ((g || b) && /^	[A-Z]/) { n++ } END { print n }')"
# Settable fields: the exported fields of the three structs a caller
# configures a run or a server with (A, B T counts two), the knobs a
# simplicity PR removes beside its flags.
fields() {
	awk -v t="$2" '$0 == "type " t " struct {" { b = 1; next } b && /^}/ { b = 0 }
		b && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)*/) { s = substr($0, RSTART, RLENGTH); n += gsub(/,/, "", s) + 1 }
		END { print n + 0 }' "$1"
}
ilt=$(fields internal/ilt/ilt.go Config)
opts=$(fields mosaic.go TileOptions)
srv=$(fields internal/serve/serve.go Config)
echo "settable fields (ilt.Config + mosaic.TileOptions + serve.Config): $ilt + $opts + $srv = $((ilt + opts + srv))"
