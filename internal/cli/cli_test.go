package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/bench"
	"mosaic/internal/gds"
	"mosaic/internal/obs"
)

func TestLoadLayoutArgBuiltin(t *testing.T) {
	l, err := LoadLayoutArg("B3", "")
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "B3" {
		t.Fatalf("got %s", l.Name)
	}
}

func TestLoadLayoutArgFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.layout")
	if err := os.WriteFile(path, []byte("CLIP file-test 100\nRECT 10 10 20 20\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := LoadLayoutArg("", path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "file-test" {
		t.Fatalf("got %s", l.Name)
	}
}

func TestObsFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.LogLevel != "info" || f.Pprof != "" || f.Trace != "" {
		t.Fatalf("unexpected defaults: %+v", f)
	}
	cleanup, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	cleanup()
}

func TestObsFlagsSetup(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddObsFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-pprof", "127.0.0.1:0", "-trace", trace}); err != nil {
		t.Fatal(err)
	}
	cleanup, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if f.Addr == "" {
		t.Fatal("Setup did not record the debug server address")
	}
	_, sp := obs.StartSpan(context.Background(), obs.OpticsBuildKernels)
	sp.End() // one observation to scrape, one line to trace
	resp, err := http.Get("http://" + f.Addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE span_optics_build_kernels_seconds histogram") ||
		strings.Contains(string(body), "span_optics_build_kernels_seconds_count 0\n") {
		t.Fatalf("/metrics dump unexpected:\n%s", body)
	}
	cleanup()
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct{ Name, Ph string }
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace file is not a JSON array: %v\n%s", err, data)
	}
	found := false
	for _, ev := range evs {
		found = found || ev.Name == "optics.build_kernels" && ev.Ph == "X"
	}
	if !found {
		t.Fatalf("trace file missing span event:\n%s", data)
	}
}

// TestTraceOnAFullDiskWarns: a -trace file the disk could not hold is cut
// short, and the cleanup says so at warn instead of passing it off as a
// whole trace.
func TestTraceOnAFullDiskWarns(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var logged bytes.Buffer
	obs.SetLogger(slog.New(slog.NewTextHandler(&logged, nil)))
	defer obs.SetLogger(nil)
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddObsFlags(fs)
	if err := fs.Parse([]string{"-log-level", "warn", "-trace", "/dev/full"}); err != nil {
		t.Fatal(err)
	}
	cleanup, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	_, sp := obs.StartSpan(context.Background(), obs.OpticsBuildKernels)
	sp.End()
	cleanup()
	if out := logged.String(); !strings.Contains(out, "level=WARN") || !strings.Contains(out, "/dev/full") {
		t.Errorf("cleanup of a trace that could not be written logged %q, want a warning naming the file", out)
	}
}

func TestParseLogLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLogLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLogLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestLoadLayoutArgErrors(t *testing.T) {
	if _, err := LoadLayoutArg("", ""); err == nil {
		t.Fatal("neither flag rejected? no")
	}
	if _, err := LoadLayoutArg("B1", "x.layout"); err == nil {
		t.Fatal("both flags accepted")
	}
	if _, err := LoadLayoutArg("B99", ""); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := LoadLayoutArg("", "/nonexistent/file.layout"); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.layout")
	if err := os.WriteFile(bad, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLayoutArg("", bad); err == nil {
		t.Fatal("malformed file accepted")
	}
}

func TestLoadLayoutArgGDS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clip.gds")
	l, err := bench.Layout("B5")
	if err != nil {
		t.Fatal(err)
	}
	if err := gds.Save(path, l, 1); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLayoutArg("", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Polys) != len(l.Polys) {
		t.Fatalf("%d polys, want %d", len(got.Polys), len(l.Polys))
	}
	// Clip size rounds up to a multiple of 256 so power-of-two grids fit.
	if int(got.SizeNM)%256 != 0 {
		t.Fatalf("clip size %g not grid friendly", got.SizeNM)
	}
}
