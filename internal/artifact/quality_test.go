package artifact

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"

	"mosaic/internal/cache"
	"mosaic/internal/frame"
	"mosaic/internal/ilt"
	"mosaic/internal/metrics"
)

// anchoredRecord commits a small three-leaf job and returns its record.
func anchoredRecord(t *testing.T, s *Store, jobID string) *Record {
	t.Helper()
	var leaves []Leaf
	for i := 0; i < 3; i++ {
		d, err := s.PutResult(testResult(8, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, Leaf{Index: i, Blob: d})
	}
	rec, err := s.Commit(jobID, []byte(`{"schema":1}`), leaves)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestQualitySideCar: the evaluation of an anchored run round-trips beside
// its record, a defective entry is quarantined and recomputable, and none
// of it touches what Verify proves.
func TestQualitySideCar(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := anchoredRecord(t, s, "job-q")
	p := metrics.DefaultParams()
	want := metrics.Quality{Testcase: "clip-q", EPEViolations: 3, PVBandNM2: 3079.68, ShapeViolations: 1}

	if _, err := s.Quality(rec, p); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup before any put: %v, want ErrNotFound", err)
	}
	written := mBlobsWritten.Value()
	if err := s.PutQuality(rec, p, want); err != nil {
		t.Fatal(err)
	}
	if mBlobsWritten.Value() != written {
		t.Fatal("a quality entry was counted as a blob")
	}
	if got, err := s.Quality(rec, p); err != nil || got != want {
		t.Fatalf("Quality = %+v, %v; want %+v", got, err, want)
	}
	// A re-run of the same work is another record with the same digests.
	again := anchoredRecord(t, s, "job-q-rerun")
	if got, err := s.Quality(again, p); err != nil || got != want {
		t.Fatalf("re-anchored run: %+v, %v; want the first run's entry", got, err)
	}

	// One flipped byte: quarantined, reported, gone — and a fresh entry
	// can take its place.
	key := qualityKey(rec, p).String()
	path := s.quality.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quality(rec, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lookup of a flipped entry: %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("defective entry was not quarantined: %v", err)
	}
	if _, err := s.Quality(rec, p); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after quarantine: %v, want ErrNotFound", err)
	}
	if err := s.PutQuality(rec, p, want); err != nil {
		t.Fatal(err)
	}
	// An intact frame written for another key is as defective as a torn one.
	other := testDigest(9)
	if err := os.WriteFile(path, encodeQuality(other, want).Seal(qualityMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quality(rec, p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lookup of a misplaced entry: %v, want ErrCorrupt", err)
	}

	// The side-car is derived data: the record proves out with or
	// without it, and holds no reference to it.
	if rep := s.Verify(rec); !rep.OK {
		t.Fatalf("Verify after side-car traffic: %+v", rep)
	}
	if refs := s.ByBlob(Digest(qualityKey(rec, p))); len(refs) != 0 {
		t.Fatalf("side-car key is indexed as a blob: %+v", refs)
	}
}

// TestPutResultMemoisesLeafDigest: a result anchored again — by another
// job, from several goroutines at once, into another store — keeps the
// digest its bytes hash to, a store that has the digest memoised but not
// the blob still writes the blob, and a copy that carries the memo and is
// then edited is anchored under its own content, not the original's.
func TestPutResultMemoisesLeafDigest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := testResult(8, 3)
	payload, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	want := HashBlob(payload)

	digests := make([]Digest, 8)
	var wg sync.WaitGroup
	for i := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := s.PutResult(res)
			if err != nil {
				t.Error(err)
			}
			digests[i] = d
		}()
	}
	wg.Wait()
	for i, d := range digests {
		if d != want {
			t.Fatalf("PutResult %d = %s, want the payload's digest %s", i, d, want)
		}
	}
	if got, err := s.Blob(want); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stored blob: %v, equal=%v", err, bytes.Equal(got, payload))
	}

	other, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if d, err := other.PutResult(res); err != nil || d != want {
		t.Fatalf("PutResult into a second store = %s, %v", d, err)
	}
	if got, err := other.Blob(want); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("second store's blob: %v", err)
	}
	if _, err := s.PutResult(&ilt.Result{}); err == nil {
		t.Fatal("PutResult accepted a result with no mask")
	}

	// A value copy takes the memo with it (go vet flags `*res` for that;
	// reflection does not). Each field the blob covers, edited on such a
	// copy, must reach the digest and the stored bytes.
	edits := map[string]func(*ilt.Result){
		"Objective":  func(r *ilt.Result) { r.Objective++ },
		"Iterations": func(r *ilt.Result) { r.Iterations++ },
		"MaskGray":   func(r *ilt.Result) { r.MaskGray = testResult(8, 4).MaskGray },
	}
	for name, edit := range edits {
		cp := reflect.New(reflect.TypeOf(res).Elem())
		cp.Elem().Set(reflect.ValueOf(res).Elem())
		edited := cp.Interface().(*ilt.Result)
		if d, err := s.PutResult(edited); err != nil || d != want {
			t.Fatalf("unedited copy = %s, %v; want the original's digest", d, err)
		}
		edit(edited)
		payload, err := EncodeResult(edited)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.PutResult(edited)
		if err != nil || d != HashBlob(payload) || d == want {
			t.Fatalf("copy with edited %s anchored as %s, %v; want %s", name, d, err, HashBlob(payload))
		}
		if got, err := s.Blob(d); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("copy with edited %s: stored blob: %v", name, err)
		}
	}
	if d, err := s.PutResult(res); err != nil || d != want {
		t.Fatalf("original after its copies were edited = %s, %v", d, err)
	}
}

// TestQualityKeySensitivity: every input of the key moves it — each
// metrics.Params field (by reflection, so a new field cannot be left out),
// the numeric-path generation, and both record digests.
func TestQualityKeySensitivity(t *testing.T) {
	rec := &Record{Root: testDigest(1), Manifest: testDigest(2)}
	p := metrics.DefaultParams()
	base := qualityKey(rec, p)
	if qualityKey(rec, p) != base {
		t.Fatal("key is not deterministic")
	}

	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		q := p
		f := reflect.ValueOf(&q).Elem().Field(i)
		f.SetFloat(f.Float() + 0.5)
		if qualityKey(rec, q) == base {
			t.Errorf("Params.%s does not reach the key", v.Type().Field(i).Name)
		}
	}
	// The generation: the key is this digest with cache.DigestVersion in
	// front, so a bumped build addresses other entries.
	generation := func(version int64) Digest {
		return frame.Digest(func(w *frame.Writer) {
			w.I64(version)
			w.Raw(rec.Root[:])
			w.Raw(rec.Manifest[:])
			p.AppendBits(w)
		})
	}
	if generation(cache.DigestVersion) != base {
		t.Error("key is not the digest of (DigestVersion, root, manifest, Params)")
	}
	if generation(cache.DigestVersion+1) == base {
		t.Error("DigestVersion does not reach the key")
	}
	if qualityKey(&Record{Root: testDigest(3), Manifest: rec.Manifest}, p) == base {
		t.Error("Merkle root does not reach the key")
	}
	if qualityKey(&Record{Root: rec.Root, Manifest: testDigest(3)}, p) == base {
		t.Error("manifest digest does not reach the key")
	}

	// A miss in practice: an entry stored under the paper's constants
	// does not answer for a tighter EPE threshold.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutQuality(rec, p, metrics.Quality{Testcase: "x"}); err != nil {
		t.Fatal(err)
	}
	tight := p
	tight.EPEThresholdNM = 10
	if _, err := s.Quality(rec, tight); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup under other Params: %v, want ErrNotFound", err)
	}
}

// FuzzDecodeQuality: hostile side-car bytes are an error or an exact
// round-trip, never a panic.
func FuzzDecodeQuality(f *testing.F) {
	key := testDigest(5)
	seed := encodeQuality(key, metrics.Quality{Testcase: "B4", EPEViolations: 2, PVBandNM2: 1184, ShapeViolations: 0}).Payload()
	f.Add(seed)
	f.Add(seed[:len(seed)-8])
	f.Fuzz(func(t *testing.T, payload []byte) {
		var key Digest
		if len(payload) >= 8+len(key) {
			copy(key[:], payload[8:])
		}
		q, err := decodeQuality(payload, key)
		if err != nil {
			return
		}
		if again := encodeQuality(key, q).Payload(); !bytes.Equal(again, payload) {
			t.Fatalf("decoded quality %+v does not re-encode to its bytes", q)
		}
	})
}
