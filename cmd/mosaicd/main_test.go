package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"mosaic"
)

// expandBraces spells out a documented name's brace groups:
// "a_{b,c}_{d,e}" is a_b_d, a_b_e, a_c_d, a_c_e.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		for _, rest := range expandBraces(s[end+1:]) {
			out = append(out, s[:open]+alt+rest)
		}
	}
	return out
}

// TestDesignDocumentsMetricNames holds DESIGN.md to the metric registry of
// this binary, which links every package that registers one: each
// /metrics family is named in DESIGN.md (brace groups spelled out), and
// each name DESIGN.md gives under a metric prefix is a family. The
// span_<name>_seconds histograms are README's (obs.TestReadmeDocumentsNames).
func TestDesignDocumentsMetricNames(t *testing.T) {
	registered := map[string]bool{}
	prefixes := map[string]bool{}
	for _, line := range strings.Split(mosaic.MetricsText(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && !strings.HasPrefix(f[2], "span_") {
			registered[f[2]] = true
			prefixes[strings.SplitN(f[2], "_", 2)[0]] = true
		}
	}
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	name := regexp.MustCompile("`([a-z][a-z0-9]*)(_[a-z0-9_]*(?:\\{[a-z0-9_,]+\\}[a-z0-9_]*)*)`")
	for _, m := range name.FindAllStringSubmatch(string(raw), -1) {
		if prefixes[m[1]] {
			for _, n := range expandBraces(m[1] + m[2]) {
				documented[n] = true
			}
		}
	}
	var missing, stale []string
	for n := range registered {
		if !documented[n] {
			missing = append(missing, n)
		}
	}
	for n := range documented {
		if !registered[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("on /metrics but not in DESIGN.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("named in DESIGN.md but not on /metrics: %v", stale)
	}
	if len(registered) < 50 {
		t.Errorf("only %d metric families registered: the binary lost a package", len(registered))
	}
}
