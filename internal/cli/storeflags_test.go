package cli

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mosaic/internal/ilt"
)

func parseWarm(t *testing.T, args ...string) *StoreFlags {
	t.Helper()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddStoreFlags(fs, 0)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWarmFlagsOff(t *testing.T) {
	f := parseWarm(t)
	if !f.WarmHarvest {
		t.Fatal("harvesting must default on")
	}
	st, err := f.Open()
	if err != nil || st != (Stores{}) {
		t.Fatalf("unset flags must open no store: %+v err=%v", st, err)
	}
}

func TestWarmFlagsOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lib")
	f := parseWarm(t, "-warm-lib", dir, "-warm-max-dist", "0.1")
	st, err := f.Open()
	if err != nil || st.WarmStart == nil {
		t.Fatalf("valid flags failed to open a library: %v", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("Open did not create the library dir: %v", err)
	}
}

// TestWarmFlagsInvalid: what the library refuses reaches the command line
// as the library's own typed error — its field names, no flag-name table
// kept in step with them.
func TestWarmFlagsInvalid(t *testing.T) {
	var cerr *ilt.ConfigError

	for _, d := range []string{"-0.5", "NaN"} {
		f := parseWarm(t, "-warm-lib", t.TempDir(), "-warm-max-dist", d)
		if _, err := f.Open(); !errors.As(err, &cerr) || cerr.Field != "WarmStart.MaxDist" {
			t.Fatalf("-warm-max-dist %s: got %v, want ConfigError on WarmStart.MaxDist", d, err)
		}
	}
	// With warm-start off nothing reads the distance.
	f := parseWarm(t, "-warm-max-dist", "-1")
	if st, err := f.Open(); err != nil || st.WarmStart != nil {
		t.Fatalf("a distance with warm-start off: got %+v, %v", st, err)
	}

	// An unusable directory (a path under a regular file).
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f = parseWarm(t, "-warm-lib", filepath.Join(file, "lib"))
	if _, err := f.Open(); !errors.As(err, &cerr) || cerr.Field != "WarmStart.Dir" {
		t.Fatalf("unusable -warm-lib: got %v, want ConfigError on WarmStart.Dir", err)
	}
}
