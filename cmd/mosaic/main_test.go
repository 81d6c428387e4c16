package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mosaic"
	"mosaic/internal/cli"
	"mosaic/internal/obs"
)

// admitArgs parses a command line and runs the pre-build admission on it.
func admitArgs(t *testing.T, args ...string) error {
	t.Helper()
	fs := flag.NewFlagSet("mosaic", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	_, err := o.admit(set)
	return err
}

func wantField(t *testing.T, name string, err error, field string) {
	t.Helper()
	var ce *mosaic.ConfigError
	switch {
	case field == "" && err != nil:
		t.Errorf("%s: rejected: %v", name, err)
	case field != "" && (!errors.As(err, &ce) || ce.Field != field):
		t.Errorf("%s: got %v, want a *ConfigError on %s", name, err, field)
	}
}

// TestCheckFlags: the command's own rules — a -method baseline reads no
// pipeline flag, a sharded or disk-cached run writes no converge.csv — are
// typed errors before the kernel build; zero keeps meaning "default".
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		field string // "" = accepted
	}{
		{"defaults", nil, ""},
		{"sharded", []string{"-tile-nm", "512", "-tile-workers", "2"}, ""},
		{"converge untiled", []string{"-converge"}, ""},
		{"converge with a tile pitch that does not shard", []string{"-tile-nm", "2048", "-converge"}, ""},
		{"converge sharded", []string{"-tile-nm", "512", "-converge"}, "converge"},
		// A disk hit runs no iteration: the second of two such runs would
		// write a header-only converge.csv.
		{"converge with a disk cache", []string{"-converge", "-cache-dir", "c"}, "converge"},
		{"converge with a memory cache", []string{"-converge", "-cache-mem", "64"}, ""},
		{"mode in capitals", []string{"-mode", "EXACT"}, ""},
		{"unknown mode", []string{"-mode", "quick"}, "mode"},
		{"baseline", []string{"-method", "rulebased", "-grid", "64", "-log-level", "debug"}, ""},
		{"pipeline flags without -method", []string{"-tile-nm", "512", "-cache-dir", "c", "-out", "o"}, ""},
		// The reproduced command line: -tile-nm shrank the pixel under a
		// baseline that never tiles, and the stores were opened for nothing.
		{"baseline with -tile-nm and stores", []string{"-method", "rulebased", "-grid", "64", "-tile-nm", "512", "-artifact-dir", "a", "-cache-dir", "c", "-out", "o"}, "tile-nm"},
		{"baseline with -mode", []string{"-method", "modelbased", "-mode", "exact"}, "mode"},
		{"baseline with -iter", []string{"-method", "modelbased", "-iter", "3"}, "iter"},
		{"baseline with -converge", []string{"-method", "modelbased", "-converge"}, "converge"},
		{"baseline with -tile-workers", []string{"-method", "modelbased", "-tile-workers", "2"}, "tile-workers"},
		{"baseline with -out", []string{"-method", "plainilt", "-out", "o"}, "out"},
	} {
		wantField(t, tc.name, admitArgs(t, append([]string{"-testcase", "B1"}, tc.args...)...), tc.field)
	}
	// The store flags are registered by internal/cli: one added there must
	// not become a flag a -method run silently ignores.
	fs := flag.NewFlagSet("stores", flag.ContinueOnError)
	cli.AddStoreFlags(fs, 0)
	fs.VisitAll(func(f *flag.Flag) {
		err := admitArgs(t, "-testcase", "B1", "-method", "rulebased", "-"+f.Name+"="+f.DefValue)
		wantField(t, "-method with -"+f.Name, err, f.Name)
	})
}

// TestPipelineFlagsAreTheRegisteredOnes holds pipelineFlags to
// defineFlags: every name listed is a registered flag, and every registered
// flag is listed or is one a -method baseline reads (the target, the grid,
// the method and the shared observability flags). A flag deleted from the
// command but not from the list, or added to it but not to the list, fails
// here instead of leaving a stale entry or a silently ignored flag.
func TestPipelineFlagsAreTheRegisteredOnes(t *testing.T) {
	fs := flag.NewFlagSet("mosaic", flag.ContinueOnError)
	defineFlags(fs)
	read := map[string]bool{"testcase": true, "layout": true, "grid": true, "method": true}
	obsFlags := flag.NewFlagSet("obs", flag.ContinueOnError)
	cli.AddObsFlags(obsFlags)
	obsFlags.VisitAll(func(f *flag.Flag) { read[f.Name] = true })
	listed := map[string]bool{}
	for _, name := range pipelineFlags {
		listed[name] = true
		if fs.Lookup(name) == nil {
			t.Errorf("pipelineFlags lists -%s, which is not registered", name)
		}
		if read[name] {
			t.Errorf("pipelineFlags lists -%s, which a -method baseline reads", name)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !listed[f.Name] && !read[f.Name] {
			t.Errorf("-%s is registered but neither in pipelineFlags nor read by a -method baseline", f.Name)
		}
	})
}

// TestAdmitFlags feeds the shared table of requests no layer can run
// (testdata/inadmissible.json, see the root package's TestAdmitRefusals)
// through the command line: each is refused on the library's field name
// before NewSetup — -iter -3, which used to run the default budget
// without a word, among them — and no kernel set is built.
func TestAdmitFlags(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/inadmissible.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name, Field string
		Job         map[string]any
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // a flag value is the number as the file spells it
	if err := dec.Decode(&rows); err != nil {
		t.Fatal(err)
	}
	flagOf := map[string]string{"benchmark": "testcase", "layout": "layout", "grid": "grid", "max_iter": "iter",
		"tile_nm": "tile-nm", "tile_workers": "tile-workers"}
	misses := obs.NewCounter("optics_kernel_cache_misses_total")
	before, ran := misses.Value(), 0
	for _, row := range rows {
		var args []string
		for key, val := range row.Job {
			if key == "layout" { // the job's text; the command line takes a file
				path := filepath.Join(t.TempDir(), "clip.txt")
				if err := os.WriteFile(path, []byte(val.(string)), 0o644); err != nil {
					t.Fatal(err)
				}
				val = path
			}
			args = append(args, "-"+flagOf[key], fmt.Sprint(val))
		}
		wantField(t, row.Name, admitArgs(t, args...), row.Field)
		ran++
	}
	if ran < 10 {
		t.Errorf("only %d rows of the shared table reached the command line", ran)
	}
	if built := misses.Value() - before; built != 0 {
		t.Errorf("%d kernel sets were built on the way to the refusals", built)
	}
}
