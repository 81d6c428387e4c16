package artifact

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"mosaic/internal/cache"
	"mosaic/internal/cas"
	"mosaic/internal/frame"
	"mosaic/internal/metrics"
)

// The quality side-car keeps the evaluation of an anchored run beside its
// record: dir/quality/<2-hex>/<key>.mtq, one MTAQ frame per entry. The
// scalar quality of a mask (EPE violations, PV-band area, shape
// violations) is a pure function of the anchored bits and the evaluation
// constants, so a repeat of anchored work looks it up instead of
// re-imaging the stitched mask at every focus plane.
//
// The key digests the record's Merkle root and manifest digest (together:
// every tile's bytes and every input that produced them, the target
// geometry and the imaging model the evaluation also runs on), every
// metrics.Params field, and the numeric-path generation. Runtimes are not
// in the key or the payload — a cold run, a cached one and a resumed one
// of the same work share one entry — and are folded into the score by the
// reader. An entry is derived data, not evidence: it is not a blob, has no
// leaf in the Merkle tree, and is never consulted by Verify; a defective
// one is quarantined and recomputed, like a tile-cache entry.
const (
	qualityMagic   uint32 = 0x5141544d // "MTAQ"
	qualityVersion        = 1
)

// qualityKey addresses the side-car entry of one anchored run under one
// set of evaluation constants, in this build's numeric-path generation.
func qualityKey(rec *Record, p metrics.Params) Digest {
	return frame.Digest(func(w *frame.Writer) {
		w.I64(cache.DigestVersion)
		w.Raw(rec.Root[:])
		w.Raw(rec.Manifest[:])
		p.AppendBits(w)
	})
}

// encodeQuality lays out one entry: version, the key it is stored under
// (so a misplaced file cannot answer for another run), then the scalars.
func encodeQuality(key Digest, q metrics.Quality) *frame.Writer {
	w := frame.NewFrame(96 + len(q.Testcase))
	w.I64(qualityVersion)
	w.Raw(key[:])
	w.Put(&q.Testcase, &q.EPEViolations, &q.PVBandNM2, &q.ShapeViolations)
	return w
}

// decodeQuality parses an entry's payload and checks it was written for
// key.
func decodeQuality(payload []byte, key Digest) (metrics.Quality, error) {
	var q metrics.Quality
	r := frame.NewReader(payload)
	r.Version(qualityVersion)
	if got := r.Raw(len(key)); r.Err() == nil && Digest(got) != key {
		r.Fail("entry was written for key %s", hex.EncodeToString(got))
	}
	r.Get(&q.Testcase, &q.EPEViolations, &q.PVBandNM2, &q.ShapeViolations)
	if r.Err() == nil && (q.EPEViolations < 0 || q.ShapeViolations < 0 ||
		q.PVBandNM2 < 0 || math.IsNaN(q.PVBandNM2) || math.IsInf(q.PVBandNM2, 0)) {
		r.Fail("implausible quality %+v", q)
	}
	if err := r.Done(); err != nil {
		return metrics.Quality{}, err
	}
	return q, nil
}

// Quality returns the stored evaluation of an anchored run under p:
// ErrNotFound when none was stored, ErrCorrupt when the entry on disk was
// defective — it has then been quarantined, so the caller evaluates and
// stores a clean one.
func (s *Store) Quality(rec *Record, p metrics.Params) (metrics.Quality, error) {
	key := qualityKey(rec, p)
	payload, err := s.quality.Get(key.String())
	if err == nil {
		var q metrics.Quality
		if q, err = decodeQuality(payload, key); err == nil {
			return q, nil
		}
		err = fmt.Errorf("%w: %v", cas.ErrCorrupt, err)
	}
	switch {
	case errors.Is(err, cas.ErrNotFound):
		return metrics.Quality{}, fmt.Errorf("%w: quality of %s", ErrNotFound, rec.Root)
	case errors.Is(err, cas.ErrCorrupt):
		s.quality.Quarantine(key.String())
		return metrics.Quality{}, fmt.Errorf("%w: quality of %s: %v", ErrCorrupt, rec.Root, err)
	}
	return metrics.Quality{}, fmt.Errorf("artifact: reading quality of %s: %w", rec.Root, err)
}

// PutQuality stores the evaluation of an anchored run under p. The entry
// is a cache of a recomputable value: it is not fsynced (a torn write
// fails its CRC and is recomputed) and not counted as a blob.
func (s *Store) PutQuality(rec *Record, p metrics.Params, q metrics.Quality) error {
	key := qualityKey(rec, p)
	if _, err := s.quality.Put(key.String(), encodeQuality(key, q).Seal(qualityMagic)); err != nil {
		return fmt.Errorf("artifact: writing quality of %s: %w", rec.Root, err)
	}
	return nil
}
