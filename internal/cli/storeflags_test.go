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

func TestWarmFlagsInvalid(t *testing.T) {
	var cerr *ilt.ConfigError

	f := parseWarm(t, "-warm-lib", t.TempDir(), "-warm-max-dist", "-0.5")
	if _, err := f.Open(); !errors.As(err, &cerr) || cerr.Field != "warm-max-dist" {
		t.Fatalf("negative -warm-max-dist: got %v, want ConfigError on warm-max-dist", err)
	}
	// A negative distance is rejected even before the library path is
	// looked at, so the error names the flag the user must fix.
	f = parseWarm(t, "-warm-max-dist", "-1")
	if _, err := f.Open(); !errors.As(err, &cerr) || cerr.Field != "warm-max-dist" {
		t.Fatalf("negative distance with warm-start off: got %v", err)
	}

	// An unusable directory (a path under a regular file) surfaces as a
	// ConfigError naming -warm-lib, remapped from the library's own field.
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f = parseWarm(t, "-warm-lib", filepath.Join(file, "lib"))
	if _, err := f.Open(); !errors.As(err, &cerr) || cerr.Field != "warm-lib" {
		t.Fatalf("unusable -warm-lib: got %v, want ConfigError on warm-lib", err)
	}
}
