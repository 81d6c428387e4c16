package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"mosaic"
	"mosaic/internal/cli"
)

// readmeFlagTable extracts the flag names documented in the
// "### mosaicd flags" table of the repo README.
func readmeFlagTable(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("reading README: %v", err)
	}
	_, section, ok := strings.Cut(string(raw), "### mosaicd flags")
	if !ok {
		t.Fatal(`README has no "### mosaicd flags" section`)
	}
	// The table ends at the next heading.
	if i := strings.Index(section, "\n#"); i >= 0 {
		section = section[:i]
	}
	row := regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|")
	docs := make(map[string]bool)
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		docs[m[1]] = true
	}
	if len(docs) == 0 {
		t.Fatal("README mosaicd flag table has no parseable rows")
	}
	return docs
}

// TestReadmeDocumentsFlags pins the README flag table to the binary:
// every mosaicd-specific flag must appear in the table, and the table
// must not name flags that no longer exist. The shared observability
// flags are documented once in the Observability section instead, so
// they are exempt here.
func TestReadmeDocumentsFlags(t *testing.T) {
	obsOnly := flag.NewFlagSet("obs", flag.ContinueOnError)
	cli.AddObsFlags(obsOnly)
	shared := make(map[string]bool)
	obsOnly.VisitAll(func(f *flag.Flag) { shared[f.Name] = true })

	fs := flag.NewFlagSet("mosaicd", flag.ContinueOnError)
	defineFlags(fs)

	docs := readmeFlagTable(t)
	registered := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) {
		if shared[f.Name] {
			return
		}
		registered[f.Name] = true
		if !docs[f.Name] {
			t.Errorf("flag -%s is registered but missing from the README mosaicd flag table", f.Name)
		}
	})
	for name := range docs {
		if !registered[name] {
			t.Errorf("README documents -%s but mosaicd does not register it", name)
		}
	}
}

// TestValidateFlags: negative counts and a drain timeout that is not
// positive are typed errors; zero counts are legal and the help says what
// they do (serve.New runs one job at a time and queues 64), not what the
// tile-level hint of the same name does. What every job inherits from the flags (-grid) is refused as
// mosaic.Admit refuses it: the rows of the shared table
// (testdata/inadmissible.json, see the root package's TestAdmitRefusals)
// the daemon's flags can spell get the same field here.
func TestValidateFlags(t *testing.T) {
	type flagCase struct {
		args  []string
		field string // "" = accepted
	}
	cases := []flagCase{
		{nil, ""},
		{[]string{"-workers", "0", "-grid", "64"}, ""},
		{[]string{"-workers", "-1"}, "workers"},
		{[]string{"-queue", "0", "-drain-timeout", "1ms"}, ""},
		{[]string{"-queue", "-1"}, "queue"},
		{[]string{"-drain-timeout", "0s"}, "drain-timeout"},
		{[]string{"-drain-timeout", "-5s"}, "drain-timeout"},
	}
	raw, err := os.ReadFile("../../testdata/inadmissible.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Field string
		Job   struct{ Grid json.Number }
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Field == "OpticsConfig.GridSize" {
			cases = append(cases, flagCase{[]string{"-grid", row.Job.Grid.String()}, row.Field})
		}
	}
	if len(cases) < 12 {
		t.Fatalf("only %d cases: the shared table lost its grid rows", len(cases))
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("mosaicd", flag.ContinueOnError)
		o := defineFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := o.validate()
		var ce *mosaic.ConfigError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.field != "" && (!errors.As(err, &ce) || ce.Field != tc.field):
			t.Errorf("%v: got %v, want a *ConfigError on %s", tc.args, err, tc.field)
		}
	}
	fs := flag.NewFlagSet("mosaicd", flag.ContinueOnError)
	defineFlags(fs)
	if usage := fs.Lookup("workers").Usage; strings.Contains(usage, "pool capacity") || !strings.Contains(usage, "0 is taken as 1") {
		t.Errorf("-workers help %q does not say that 0 runs one at a time", usage)
	}
	if usage := fs.Lookup("queue").Usage; !strings.Contains(usage, "0 is taken as 64") {
		t.Errorf("-queue help %q does not say that 0 queues 64", usage)
	}
}
