package mosaic

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"

	"mosaic/internal/par"
)

// TestBitsIndependentOfCoreCount carries internal/ilt's test of the same
// name through the pipeline: a Setup built (and its resist threshold
// calibrated) under each GOMAXPROCS, then a 2 x 2 OptimizeLayout with the
// paper's multi-kernel gradients into a fresh cache and artifact store,
// must arrive at the same tile-cache keys, the same manifest and the same
// Merkle root — so a cache directory or an artifact store can move between
// hosts of different sizes. An untiled one-window
// OptimizeLayout, the benchmark's clip operation — one pool reservation,
// its task lists on whatever tokens are left — must reach the same
// gray-mask bits too, and the evaluation of each mask — the untiled
// Evaluate and the 2 x 2 EvaluateLayout — the same report. Not parallel: it sets GOMAXPROCS for the whole
// process, and restores it.
func TestBitsIndependentOfCoreCount(t *testing.T) {
	par.Capacity() // size the pool on the whole machine before GOMAXPROCS drops to 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	layout := cacheLayout()
	cfg := DefaultConfig(ModeFast)
	cfg.MaxIter = 4
	type anchored struct {
		Threshold      float64
		Keys           []string
		Manifest, Root string
		ClipGray       [sha256.Size]byte // digest of the untiled run's gray-mask bit patterns
		ClipReport     evaluated         // untiled Evaluate of the clip's mask
		LayoutReport   evaluated         // 2 x 2 EvaluateLayout of the tiled mask
	}
	measure := func() anchored {
		s, err := NewSetup(smallOptics())
		if err != nil {
			t.Fatal(err)
		}
		store, err := OpenTileCache("", 0)
		if err != nil {
			t.Fatal(err)
		}
		art, err := OpenArtifactStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer art.Close()
		res, err := s.OptimizeLayout(context.Background(), cfg, layout, TileOptions{TileNM: 512, Cache: store, Artifact: art})
		if err != nil {
			t.Fatal(err)
		}
		got := anchored{Threshold: s.Sim.Resist.Threshold, Manifest: res.Artifact.Manifest.String(), Root: res.Artifact.Root.String()}
		for _, p := range res.Provenance {
			got.Keys = append(got.Keys, p.Key)
		}
		clip, err := s.OptimizeLayout(context.Background(), cfg, smallLayout(), TileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got.ClipGray = fieldDigest(clip.MaskGray)
		rep, err := s.Evaluate(clip.Mask, smallLayout(), 0)
		if err != nil {
			t.Fatal(err)
		}
		got.ClipReport = evaluatedOf(rep)
		if rep, err = s.EvaluateLayout(res.Mask, layout, TileOptions{TileNM: 512}, 0); err != nil {
			t.Fatal(err)
		}
		got.LayoutReport = evaluatedOf(rep)
		return got
	}

	runtime.GOMAXPROCS(1)
	want := measure()
	if len(want.Keys) != 4 || want.Keys[0] == "" {
		t.Fatalf("expected four keyed tiles, got %q", want.Keys)
	}
	for _, procs := range []int{2, 3, 5} {
		runtime.GOMAXPROCS(procs)
		got := measure()
		for _, row := range []struct {
			name      string
			got, want any
		}{
			{"calibrated threshold", got.Threshold, want.Threshold},
			{"tile-cache keys", got.Keys, want.Keys},
			{"manifest digest", got.Manifest, want.Manifest},
			{"Merkle root", got.Root, want.Root},
			{"untiled gray mask", got.ClipGray, want.ClipGray},
			{"untiled evaluation", got.ClipReport, want.ClipReport},
			{"2 x 2 evaluation", got.LayoutReport, want.LayoutReport},
		} {
			if !reflect.DeepEqual(row.got, row.want) {
				t.Errorf("%s: GOMAXPROCS=%d has %v, GOMAXPROCS=1 has %v", row.name, procs, row.got, row.want)
			}
		}
	}
}

// evaluated is the part of a Report TestBitsIndependentOfCoreCount pins:
// the three counts of Eq. 22 and the bits of the nominal aerial image.
type evaluated struct {
	EPE, Shapes   int
	PVBandNM2     float64
	AerialNominal [sha256.Size]byte
}

func evaluatedOf(r *Report) evaluated {
	return evaluated{EPE: r.EPEViolations, Shapes: r.ShapeViolations, PVBandNM2: r.PVBandNM2, AerialNominal: fieldDigest(r.AerialNominal)}
}

// fieldDigest hashes the bit patterns of f's samples.
func fieldDigest(f *Field) [sha256.Size]byte {
	var bits []byte
	for _, v := range f.Data {
		bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
	}
	return sha256.Sum256(bits)
}
