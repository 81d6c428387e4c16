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
	st, err := parseWarm(t).Open()
	if err != nil || st != (Stores{}) {
		t.Fatalf("unset flags must open no store: %+v err=%v", st, err)
	}
}

func TestWarmFlagsOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lib")
	f := parseWarm(t, "-warm-lib", dir)
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
	// An unusable directory (a path under a regular file).
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := parseWarm(t, "-warm-lib", filepath.Join(file, "lib"))
	if _, err := f.Open(); !errors.As(err, &cerr) || cerr.Field != "WarmStart.Dir" {
		t.Fatalf("unusable -warm-lib: got %v, want ConfigError on WarmStart.Dir", err)
	}
}
