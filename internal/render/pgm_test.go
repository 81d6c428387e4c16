package render

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mosaic/internal/grid"
)

func TestPGMRoundTrip(t *testing.T) {
	f := grid.FromRows([][]float64{{0, 0.5}, {1, 0.25}})
	var buf bytes.Buffer
	if err := WritePGM(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(f, 1.0/254) {
		t.Fatalf("round trip: %v vs %v", g.Data, f.Data)
	}
}

func TestPGMFileRoundTripBinary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.pgm")
	mask := grid.FromRows([][]float64{{0, 1}, {1, 0}})
	if err := SavePGM(path, mask); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMask(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(mask, 0) {
		t.Fatal("binary mask round trip failed")
	}
}

func TestReadPGMErrors(t *testing.T) {
	bad := []string{
		"P2\n2 2\n255\n0 0 0 0",          // ASCII variant unsupported
		"P5\n0 2\n255\n",                 // zero width
		"P5\n2 2\n255\nab",               // truncated data
		"P5\n2 2\n256\nabcd",             // max beyond 8 bits
		"P5\n1 1\n25\n\xff",              // pixel above the max
		"P5 4000000000 4000000000 255\n", // sides beyond frame.MaxFieldDim
		"P5 32768 32768 255\n",           // in range, but no pixels follow
		"garbage",
	}
	for i, s := range bad {
		if _, err := ReadPGM(strings.NewReader(s)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// FuzzReadPGM holds the mask decoder of cmd/evaluate to hostile bytes: an
// error, or a field of the header's size with every value in [0, 1] —
// never a panic, never an allocation a header sized beyond its input.
func FuzzReadPGM(f *testing.F) {
	var valid bytes.Buffer
	if err := WritePGM(&valid, grid.FromRows([][]float64{{0, 0.5, 1}, {1, 0.25, 0}})); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("P5 4000000000 4000000000 255\n"))
	f.Add([]byte("P5\n3 2\n25\x1d\n\x00\x80\xff\xff@"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.W <= 0 || g.H <= 0 || len(g.Data) != g.W*g.H || len(g.Data) > len(data) {
			t.Fatalf("%dx%d field of %d values from %d bytes", g.W, g.H, len(g.Data), len(data))
		}
		for i, v := range g.Data {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("pixel %d = %v, outside [0, 1]", i, v)
			}
		}
	})
}
