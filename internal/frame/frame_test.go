package frame

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math"
	"strings"
	"testing"

	"mosaic/internal/grid"
)

// Two magics for the tests: any format's would do.
const (
	magicA uint32 = 0x424a544d
	magicB uint32 = 0x5352544d
)

func TestFrameRoundTripAndCorruption(t *testing.T) {
	payload := []byte("tile job bytes \x00\xff")
	fr := Encode(magicA, payload)
	if len(fr) != HeaderLen+len(payload) {
		t.Fatalf("frame is %d bytes, want %d", len(fr), HeaderLen+len(payload))
	}
	if got, err := Decode(magicA, fr); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Decode = %q, %v", got, err)
	}

	flipped := append([]byte(nil), fr...)
	flipped[14] ^= 0x01 // payload corruption must trip the CRC
	huge := append([]byte(nil), fr[:HeaderLen]...)
	for i := 4; i < 8; i++ {
		huge[i] = 0xff // length far beyond the payload cap
	}
	for _, tc := range []struct {
		name  string
		data  []byte
		magic uint32
		want  string
	}{
		{"wrong magic", fr, magicB, "magic"},
		{"flipped payload byte", flipped, magicA, "CRC"},
		{"truncated", fr[:len(fr)-1], magicA, ""},
		{"short header", fr[:7], magicA, ""},
		{"oversized length", huge, magicA, "cap"},
	} {
		if _, err := Decode(tc.magic, tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Decode(%s): %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// A whole-file frame is exactly its declared length.
	if _, err := Decode(magicA, append(append([]byte(nil), fr...), 0)); err == nil {
		t.Error("Decode accepted a byte after the frame")
	}
}

// TestScan pins the append-only-log contract: the valid prefix is
// returned and everything from the first defect on is left to the caller.
func TestScan(t *testing.T) {
	rec := [][]byte{[]byte("one"), {}, []byte("three")}
	var log []byte
	for _, p := range rec {
		log = append(log, Encode(magicA, p)...)
	}
	collect := func(data []byte, reject string) (got []string, off int, err error) {
		off, err = Scan(magicA, data, func(p []byte) error {
			if string(p) == reject {
				return errors.New("rejected")
			}
			got = append(got, string(p))
			return nil
		})
		return got, off, err
	}

	if got, off, err := collect(log, "-"); err != nil || off != len(log) || len(got) != 3 {
		t.Fatalf("clean log: %q off=%d err=%v", got, off, err)
	}
	two := 2*HeaderLen + len(rec[0])
	torn := log[:len(log)-2]
	badMagic := append(append([]byte(nil), log[:two]...), Encode(magicB, rec[2])...)
	flipped := append([]byte(nil), log...)
	flipped[len(flipped)-1] ^= 0x10
	for name, data := range map[string][]byte{
		"torn tail":    torn,
		"garbage tail": append(append([]byte(nil), log[:two]...), 0x4d, 0x54),
		"wrong magic":  badMagic,
		"CRC":          flipped,
	} {
		got, off, err := collect(data, "-")
		if err == nil || off != two || len(got) != 2 {
			t.Errorf("%s: %q off=%d err=%v, want the two-record prefix (%d bytes) and a defect", name, got, off, err, two)
		}
	}
	if got, off, err := collect(log, "three"); err == nil || off != two || len(got) != 2 {
		t.Errorf("rejected payload: %q off=%d err=%v, want the scan to stop before it", got, off, err)
	}
	if off, err := Scan(magicA, nil, nil); off != 0 || err != nil {
		t.Errorf("empty log: off=%d err=%v", off, err)
	}
}

// TestStreamRoundTrip drives every Writer call through a frame and back,
// and checks the same calls feed Digest the same bytes.
func TestStreamRoundTrip(t *testing.T) {
	f := grid.New(3, 2)
	for i := range f.Data {
		f.Data[i] = float64(i) - 0.5
	}
	long := make([]float64, 1000) // longer than the Writer's chunk
	for i := range long {
		long[i] = 1 / float64(i+1)
	}
	x, n, ok, s := math.Copysign(0, -1), -7, true, "héllo"
	write := func(w *Writer) {
		w.I64(-42)
		w.F64(1e-300)
		w.Bool(false)
		w.Str("")
		w.Put(&x, &n, &ok, &s)
		w.Raw([]byte{1, 2, 3})
		w.Field(f)
		w.Field(nil)
		w.Floats(long)
	}
	w := NewFrame(0)
	write(w)
	if Digest(write) != sha256.Sum256(w.Payload()) {
		t.Fatal("Digest hashed different bytes than NewFrame accumulated")
	}
	payload, err := Decode(magicA, w.Seal(magicA))
	if err != nil {
		t.Fatal(err)
	}

	r := NewReader(payload)
	if r.I64() != -42 || r.F64() != 1e-300 || r.Bool() || r.Str() != "" {
		t.Fatal("typed scalars drifted")
	}
	var x2 float64
	var n2 int
	var ok2 bool
	var s2 string
	r.Get(&x2, &n2, &ok2, &s2)
	if x2 != 0 || !math.Signbit(x2) || n2 != n || ok2 != ok || s2 != s {
		t.Fatalf("Put/Get drifted: %v %d %v %q", x2, n2, ok2, s2)
	}
	if !bytes.Equal(r.Raw(3), []byte{1, 2, 3}) {
		t.Fatal("raw bytes drifted")
	}
	if g := r.Field(); g == nil || g.W != 3 || g.H != 2 || g.Data[5] != f.Data[5] {
		t.Fatalf("field drifted: %+v", g)
	}
	if g := r.Field(); g != nil || r.Err() != nil {
		t.Fatalf("nil field decoded as %+v (err %v)", g, r.Err())
	}
	if g := r.Grid(int64(len(long)), 1); g == nil || g.Data[999] != long[999] {
		t.Fatal("chunked floats drifted")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderBounds pins that no length field is trusted beyond the input:
// every oversized count, string or raster fails before it allocates, and
// the first failure latches.
func TestReaderBounds(t *testing.T) {
	lead := func(v int64, tail int) *Reader {
		w := NewFrame(0)
		w.I64(v)
		w.Raw(make([]byte, tail))
		return NewReader(w.Payload())
	}
	if r := lead(3, 16); r.Count(8) != 0 || r.Err() == nil {
		t.Error("count of 3 accepted with room for 2")
	}
	if r := lead(-1, 16); r.Count(8) != 0 || r.Err() == nil {
		t.Error("negative count accepted")
	}
	if r := lead(17, 16); r.Str() != "" || r.Err() == nil {
		t.Error("string longer than the payload accepted")
	}
	for _, dim := range []int64{0, -1, MaxFieldDim + 1, 1 << 40} {
		r := lead(0, 64)
		if g := r.Grid(dim, 1); g != nil || r.Err() == nil {
			t.Errorf("Grid(%d, 1) accepted", dim)
		}
	}
	if r := lead(0, 56); r.Grid(3, 3) != nil || r.Err() == nil {
		t.Error("3x3 raster accepted with room for 8 samples")
	}
	r := lead(1, 0)
	r.Version(2)
	first := r.Err()
	if first == nil || r.I64() != 0 || r.Done() != first {
		t.Errorf("version skew did not latch: %v then %v", first, r.Done())
	}
	if r := lead(0, 8); r.I64() != 0 || r.Done() == nil {
		t.Error("Done accepted trailing bytes")
	}
}

// FuzzDecode: a buffer either fails to decode or re-encodes to itself.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(magicA, []byte("payload")))
	f.Add(Encode(magicA, nil))
	f.Add([]byte("MTJB"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Decode(magicA, data)
		if err != nil {
			return
		}
		if !bytes.Equal(Encode(magicA, payload), data) {
			t.Fatal("decoded frame does not re-encode to its bytes")
		}
	})
}

// FuzzScan: the valid prefix re-scans cleanly to the same records.
func FuzzScan(f *testing.F) {
	log := append(Encode(magicA, []byte("one")), Encode(magicA, []byte("two"))...)
	f.Add(log)
	f.Add(log[:len(log)-1])
	f.Add(append(log, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		var first [][]byte
		off, err := Scan(magicA, data, func(p []byte) error { first = append(first, p); return nil })
		if off < 0 || off > len(data) || (err == nil) != (off == len(data)) {
			t.Fatalf("off=%d of %d, err=%v", off, len(data), err)
		}
		i := 0
		again, err := Scan(magicA, data[:off], func(p []byte) error {
			if i >= len(first) || !bytes.Equal(p, first[i]) {
				t.Fatal("prefix re-scan yields different records")
			}
			i++
			return nil
		})
		if err != nil || again != off || i != len(first) {
			t.Fatalf("valid prefix does not re-scan cleanly: off=%d err=%v", again, err)
		}
	})
}

// TestSquareFits: the largest power-of-two raster one frame carries is
// 8192 px; sizes whose byte count would overflow are refused, not wrapped.
func TestSquareFits(t *testing.T) {
	for n, want := range map[int]bool{0: false, -4: false, 1: true, 8192: true, 11585: true, 11586: false, 16384: false, 1 << 30: false, 1 << 62: false} {
		if got := SquareFits(n); got != want {
			t.Errorf("SquareFits(%d) = %v, want %v", n, got, want)
		}
	}
}
