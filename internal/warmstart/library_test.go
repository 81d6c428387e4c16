package warmstart

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/sim"
	"mosaic/internal/tile"
)

const (
	testWindowPx = 64
	testPixelNM  = 8
)

func testSim(t *testing.T) *sim.Simulator {
	t.Helper()
	c := optics.Default()
	c.GridSize = testWindowPx
	c.PixelNM = testPixelNM
	c.Kernels = 4
	s, err := sim.New(c, resist.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testLayout is a two-rect cell whose nm coordinates are pixel-aligned,
// shifted by (dx, dy) nm inside the 512 nm window.
func testLayout(dx, dy float64) *geom.Layout {
	return &geom.Layout{
		Name:   "warm-test",
		SizeNM: testWindowPx * testPixelNM,
		Polys: []geom.Polygon{
			geom.Rect{X: 32 + dx, Y: 48 + dy, W: 96, H: 176}.Polygon(),
			geom.Rect{X: 160 + dx, Y: 48 + dy, W: 56, H: 176}.Polygon(),
		},
	}
}

func TestSignatureTranslationInvariance(t *testing.T) {
	a, ax, ay := Compute(testLayout(0, 0), testWindowPx, testPixelNM)
	b, bx, by := Compute(testLayout(64, 8), testWindowPx, testPixelNM)
	if bx-ax != 64/testPixelNM || by-ay != 8/testPixelNM {
		t.Fatalf("anchor offsets (%d,%d) -> (%d,%d), want shift of (8,1) px", ax, ay, bx, by)
	}
	if d := a.Distance(b); d != 0 {
		t.Fatalf("translated copy measured distance %g, want 0", d)
	}
	if a.Desc != b.Desc {
		t.Fatal("translated copy produced a different descriptor")
	}

	// A genuinely different pattern must be far from the cell.
	c, _, _ := Compute(&geom.Layout{
		Name:   "other",
		SizeNM: testWindowPx * testPixelNM,
		Polys:  []geom.Polygon{geom.Rect{X: 0, Y: 0, W: 400, H: 400}.Polygon()},
	}, testWindowPx, testPixelNM)
	if d := a.Distance(c); d < DefaultMaxDist {
		t.Fatalf("distinct patterns measured distance %g, want >= %g", d, DefaultMaxDist)
	}
}

func TestTranslateZeroFill(t *testing.T) {
	src := grid.New(4, 4)
	for i := range src.Data {
		src.Data[i] = float64(i + 1)
	}
	out := Translate(src, 1, -1)
	// (x, y) reads from (x-1, y+1); out-of-frame reads are zero.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			want := 0.0
			if x-1 >= 0 && y+1 < 4 {
				want = src.Data[(y+1)*4+x-1]
			}
			if got := out.Data[y*4+x]; got != want {
				t.Fatalf("Translate(1,-1)[%d,%d] = %g, want %g", x, y, got, want)
			}
		}
	}
}

func TestOpenValidation(t *testing.T) {
	var cerr *ilt.ConfigError
	if _, err := Open(Options{Dir: ""}); !errors.As(err, &cerr) || cerr.Field != "WarmStart.Dir" {
		t.Fatalf("empty dir: got %v, want ConfigError on WarmStart.Dir", err)
	}
	// A NaN threshold made every lookup a hit at any distance: the bound
	// it must fail is written so that it does.
	for _, d := range []float64{-0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Open(Options{Dir: t.TempDir(), MaxDist: d}); !errors.As(err, &cerr) || cerr.Field != "WarmStart.MaxDist" {
			t.Fatalf("MaxDist %g: got %v, want ConfigError on WarmStart.MaxDist", d, err)
		}
	}

	// A path under a regular file cannot be created (ENOTDIR), which holds
	// even when the test runs as root (a read-only mode bit would not).
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: filepath.Join(file, "lib")}); !errors.As(err, &cerr) || cerr.Field != "WarmStart.Dir" {
		t.Fatalf("unusable dir: got %v, want ConfigError on WarmStart.Dir", err)
	}
}

// counters is a snapshot of the library's six counters, which are
// process-wide: a test reads what moved since a snapshot.
type counters struct{ lookups, hits, misses, harvested, fallbacks, corrupt int64 }

func snapshot() counters {
	return counters{mLookups.Value(), mHits.Value(), mMisses.Value(), mHarvested.Value(), mFallbacks.Value(), mCorrupt.Value()}
}

// since is what the counters moved by after c was taken.
func (c counters) since() counters {
	n := snapshot()
	return counters{n.lookups - c.lookups, n.hits - c.hits, n.misses - c.misses,
		n.harvested - c.harvested, n.fallbacks - c.fallbacks, n.corrupt - c.corrupt}
}

// entries is the size of l's in-memory index.
func entries(l *Library) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.keys)
}

// harvestOne pushes one fabricated converged window through the real
// Prepare/Finish path and returns the attempt.
func harvestOne(t *testing.T, l *Library, ws *sim.Simulator, cfg ilt.Config, layout *geom.Layout, mask *grid.Field, epoch int64) *Attempt {
	t.Helper()
	runCfg, att := l.Prepare(epoch, cfg, ws, testWindowPx, testPixelNM, layout)
	if att == nil {
		t.Fatal("Prepare returned a nil attempt for a non-empty window")
	}
	att.Finish(&ilt.Result{MaskGray: mask, Iterations: 5, Seeded: runCfg.SeedMask != nil})
	return att
}

func TestHarvestRetrieveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)

	mask := grid.New(testWindowPx, testWindowPx)
	for i := range mask.Data {
		mask.Data[i] = float64(i%7) / 7
	}

	l, err := Open(Options{Dir: dir, Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot()
	att := harvestOne(t, l, ws, cfg, testLayout(0, 0), mask, l.Epoch())
	if att.SeedKey != "" {
		t.Fatal("first window hit an empty library")
	}
	if d := before.since(); d.harvested != 1 || entries(l) != 1 || d.hits != 0 || d.misses != 1 {
		t.Fatalf("after harvest: counters moved %+v, %d entries", d, entries(l))
	}

	// Re-open from disk: the entry must survive the process boundary, and
	// a translated copy of the cell must hit and carry the mask into the
	// new window's frame.
	l2, err := Open(Options{Dir: dir, Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := entries(l2); n != 1 {
		t.Fatalf("reloaded library has %d entries, want 1", n)
	}
	runCfg, att2 := l2.Prepare(l2.Epoch(), cfg, ws, testWindowPx, testPixelNM, testLayout(64, 8))
	if att2 == nil || att2.SeedKey == "" {
		t.Fatalf("translated copy missed: %+v", att2)
	}
	if att2.Dist != 0 {
		t.Fatalf("translated copy matched at distance %g, want 0", att2.Dist)
	}
	if runCfg.SeedMask == nil {
		t.Fatal("hit did not attach a seed")
	}
	want := Translate(mask, 64/testPixelNM, 8/testPixelNM)
	if !runCfg.SeedMask.Equal(want, 0) {
		t.Fatal("retrieved seed is not the stored mask translated into the new frame")
	}

	// Harvesting the translated copy dedups: the anchor offset is not part
	// of the content key.
	before = snapshot()
	att2.Finish(&ilt.Result{MaskGray: mask, Iterations: 2, Seeded: true})
	if d := before.since(); entries(l2) != 1 || d.harvested != 0 {
		t.Fatalf("translated repeat was not deduped: counters moved %+v, %d entries", d, entries(l2))
	}
}

// TestPreparedSeedIsShared: a window that repeats is handed the seed the
// library prepared before — one immutable raster shared by concurrent
// runs, not a fresh read, decode and translation per window — while
// another frame of the same entry gets its own, and the memo stays inside
// its byte budget.
func TestPreparedSeedIsShared(t *testing.T) {
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	mask := grid.New(testWindowPx, testWindowPx)
	for i := range mask.Data {
		mask.Data[i] = float64(i%5) / 5
	}
	l, err := Open(Options{Dir: t.TempDir(), Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	harvestOne(t, l, ws, cfg, testLayout(0, 0), mask, l.Epoch())
	epoch := l.Epoch()

	seeds := make([]*grid.Field, 8)
	var wg sync.WaitGroup
	for i := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runCfg, _ := l.Prepare(epoch, cfg, ws, testWindowPx, testPixelNM, testLayout(0, 0))
			seeds[i] = runCfg.SeedMask
		}()
	}
	wg.Wait()
	for i, s := range seeds {
		if s == nil || s != seeds[0] {
			t.Fatalf("window %d was handed seed %p, window 0 %p: want one shared raster", i, s, seeds[0])
		}
	}
	if !seeds[0].Equal(mask, 0) {
		t.Fatal("shared seed is not the stored mask")
	}
	shifted, _ := l.Prepare(epoch, cfg, ws, testWindowPx, testPixelNM, testLayout(64, 8))
	if shifted.SeedMask == seeds[0] || !shifted.SeedMask.Equal(Translate(mask, 64/testPixelNM, 8/testPixelNM), 0) {
		t.Fatal("another frame of the entry must get its own translated seed")
	}
	if n, b := l.seeds.Len(), l.seeds.Bytes(); n != 2 || b != 2*(8*int64(len(mask.Data))+sha256.Size) || b > seedMemoBytes {
		t.Fatalf("memo holds %d seeds, %d bytes", n, b)
	}
}

// TestRepeatedWindowIsALookup: N repeats of a seeded window cost one
// Compute and one seed digest. Every attempt shares the signature the
// first one computed and the seed and digest the first hit prepared; the
// digest is the seed's own frame.FieldDigest, and another frame of the
// entry is signed and hashed for itself.
func TestRepeatedWindowIsALookup(t *testing.T) {
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	mask := grid.New(testWindowPx, testWindowPx)
	for i := range mask.Data {
		mask.Data[i] = float64(i%3) / 3
	}
	l, err := Open(Options{Dir: t.TempDir(), Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	first := harvestOne(t, l, ws, cfg, testLayout(0, 0), mask, l.Epoch())
	epoch := l.Epoch()

	const n = 6
	var seed *grid.Field
	var digest *[sha256.Size]byte
	for i := 0; i < n; i++ {
		runCfg, att := l.Prepare(epoch, cfg, ws, testWindowPx, testPixelNM, testLayout(0, 0))
		if att == nil || att.SeedKey == "" || att.SeedDigest == nil {
			t.Fatalf("repeat %d was not seeded: %+v", i, att)
		}
		if att.sig != first.sig {
			t.Fatalf("repeat %d computed its signature again", i)
		}
		if i == 0 {
			seed, digest = runCfg.SeedMask, att.SeedDigest
		}
		if runCfg.SeedMask != seed || att.SeedDigest != digest {
			t.Fatalf("repeat %d was handed another seed or digest than repeat 0", i)
		}
	}
	if *digest != frame.FieldDigest(seed) {
		t.Fatal("the carried digest is not the seed's FieldDigest")
	}
	if l.sigs.Len() != 1 || l.seeds.Len() != 1 {
		t.Fatalf("memos hold %d signatures and %d seeds after %d repeats of one window, want 1 and 1", l.sigs.Len(), l.seeds.Len(), n)
	}

	runCfg, att := l.Prepare(epoch, cfg, ws, testWindowPx, testPixelNM, testLayout(64, 8))
	if att == nil || att.sig == first.sig || runCfg.SeedMask == seed || *att.SeedDigest != frame.FieldDigest(runCfg.SeedMask) {
		t.Fatal("another frame of the entry must be signed and hashed for itself")
	}
	if l.sigs.Bytes() != 2*sigBytes {
		t.Fatalf("signature memo charged %d bytes for two windows, want %d", l.sigs.Bytes(), 2*sigBytes)
	}
}

// TestSeededRunLeavesSeedUnchanged: the seed memo shares one raster and
// its digest among every run handed it, so a seeded run through the real
// optimizer must leave the seed's bits as they were hashed.
func TestSeededRunLeavesSeedUnchanged(t *testing.T) {
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	cfg.MaxIter = 3
	l, err := Open(Options{Dir: t.TempDir(), Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	layout := testLayout(0, 0)
	samples := layout.SamplePoints(metrics.DefaultParams().EPESampleNM)
	run := func() (ilt.Config, *Attempt, *ilt.Result) {
		runCfg, att := l.Prepare(l.Epoch(), cfg, ws, testWindowPx, testPixelNM, layout)
		res, err := tile.RunWindow(context.Background(), ws, runCfg, layout, testWindowPx, testPixelNM, samples)
		if err != nil {
			t.Fatal(err)
		}
		att.Finish(res)
		return runCfg, att, res
	}
	run() // cold: harvests
	runCfg, att, res := run()
	if runCfg.SeedMask == nil || att.SeedDigest == nil {
		t.Fatal("the repeat was not handed a seed and its digest")
	}
	if frame.FieldDigest(runCfg.SeedMask) != *att.SeedDigest {
		t.Fatalf("a seeded run (adopted: %v) wrote into the shared seed", res.Seeded)
	}
}

func TestEpochGuardHidesInRunHarvests(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	epoch := l.Epoch() // captured before any harvest, like NewRunner does

	mask := grid.New(testWindowPx, testWindowPx)
	harvestOne(t, l, ws, cfg, testLayout(0, 0), mask, epoch)

	// The entry is indexed (a later run sees it) but invisible at the
	// captured epoch: the same pattern still misses.
	if _, att := l.Prepare(epoch, cfg, ws, testWindowPx, testPixelNM, testLayout(0, 0)); att == nil || att.SeedKey != "" {
		t.Fatalf("in-run harvest leaked through the epoch guard: %+v", att)
	}
	if _, att := l.Prepare(l.Epoch(), cfg, ws, testWindowPx, testPixelNM, testLayout(0, 0)); att == nil || att.SeedKey == "" {
		t.Fatalf("entry invisible even at the current epoch: %+v", att)
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	mask := grid.New(testWindowPx, testWindowPx)

	l, err := Open(Options{Dir: dir, Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	harvestOne(t, l, ws, cfg, testLayout(0, 0), mask, l.Epoch())

	// Flip one payload byte of the single stored entry.
	var path string
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == ".mwe" {
			path = p
		}
		return nil
	})
	if path == "" {
		t.Fatal("harvest wrote no entry file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Load-time: the corrupt entry is quarantined, never indexed, and the
	// library stays usable.
	before := snapshot()
	l2, err := Open(Options{Dir: dir, Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := before.since(); entries(l2) != 0 || d.corrupt != 1 {
		t.Fatalf("corrupt entry not quarantined at load: counters moved %+v, %d entries", d, entries(l2))
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in place: %v", err)
	}
	// The window recomputes cold and re-harvests the pattern.
	before = snapshot()
	att := harvestOne(t, l2, ws, cfg, testLayout(0, 0), mask, l2.Epoch())
	if att.SeedKey != "" {
		t.Fatal("quarantined entry still matched")
	}
	if d := before.since(); entries(l2) != 1 || d.harvested != 1 {
		t.Fatalf("recompute did not re-harvest: counters moved %+v, %d entries", d, entries(l2))
	}
}

func TestCorruptEntryDroppedOnRetrieval(t *testing.T) {
	dir := t.TempDir()
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	mask := grid.New(testWindowPx, testWindowPx)

	l, err := Open(Options{Dir: dir, Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	harvestOne(t, l, ws, cfg, testLayout(0, 0), mask, l.Epoch())

	var path string
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == ".mwe" {
			path = p
		}
		return nil
	})
	data, _ := os.ReadFile(path)
	data[20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The index still matches, but the read fails: the entry is dropped,
	// the window runs cold, and the run keeps going.
	before := snapshot()
	_, att := l.Prepare(l.Epoch(), cfg, ws, testWindowPx, testPixelNM, testLayout(0, 0))
	if att == nil || att.SeedKey != "" {
		t.Fatalf("corrupt entry seeded anyway: %+v", att)
	}
	if d := before.since(); d.corrupt != 1 || entries(l) != 0 {
		t.Fatalf("retrieval-time corruption not dropped: counters moved %+v, %d entries", d, entries(l))
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
}

func TestFinishFallbackAccounting(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Harvest: true})
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	mask := grid.New(testWindowPx, testWindowPx)
	harvestOne(t, l, ws, cfg, testLayout(0, 0), mask, l.Epoch())

	_, att := l.Prepare(l.Epoch(), cfg, ws, testWindowPx, testPixelNM, testLayout(0, 0))
	if att == nil || att.SeedKey == "" {
		t.Fatalf("expected a hit: %+v", att)
	}
	// The optimizer's probe rejected the seed: Result.Seeded is false.
	before := snapshot()
	att.Finish(&ilt.Result{MaskGray: mask, Iterations: 8, Seeded: false})
	if d := before.since(); d.fallbacks != 1 {
		t.Fatalf("probe rejection not counted as fallback: counters moved %+v", d)
	}
}

func TestHarvestDisabled(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Harvest: false})
	if err != nil {
		t.Fatal(err)
	}
	ws := testSim(t)
	cfg := ilt.DefaultConfig(ilt.ModeFast)
	before := snapshot()
	harvestOne(t, l, ws, cfg, testLayout(0, 0), grid.New(testWindowPx, testWindowPx), l.Epoch())
	if d := before.since(); d.harvested != 0 || entries(l) != 0 {
		t.Fatalf("read-only library harvested anyway: counters moved %+v, %d entries", d, entries(l))
	}
}

// FuzzDecodeEntry: error or exact round-trip, never a panic.
func FuzzDecodeEntry(f *testing.F) {
	sig, offX, offY := Compute(testLayout(8, 16), testWindowPx, testPixelNM)
	e := &entry{sig: *sig, offX: offX, offY: offY}
	e.fam[0] = 7
	mask := grid.New(testWindowPx, testWindowPx)
	mask.Data[5] = 0.75
	seed := encodeLibEntry(e, testWindowPx, testPixelNM, mask).Payload()
	f.Add(seed)
	f.Add(seed[:len(seed)-8])
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, mask, err := decodeLibEntry(payload)
		if err != nil {
			return
		}
		if got.key != entryKey(got.fam, &got.sig) {
			t.Fatal("decoded entry's key is not its content address")
		}
		pixelNM := frame.NewReader(payload[48:56]).F64() // decoded but not kept
		if again := encodeLibEntry(got, mask.W, pixelNM, mask).Payload(); !bytes.Equal(again, payload) {
			t.Fatal("decoded entry does not re-encode to its bytes")
		}
	})
}
