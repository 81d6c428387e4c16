package warmstart

import (
	"fmt"

	"mosaic/internal/cas"
	"mosaic/internal/frame"
	"mosaic/internal/grid"
	"mosaic/internal/obs"
)

// Library layout on disk: a cas.Dir of MWLE frames,
// dir/<2-hex-digit shard>/<content key>.mwe, whose payload is: version,
// family (32 raw bytes), windowPx, pixelNM, offX, offY, the signature
// (polys, areaFrac, wFrac, hFrac, K, descriptor), then the continuous
// mask. Anything that fails to decode — or whose recomputed content key
// is not the name it is stored under — is quarantined as .corrupt and
// the library recomputes: a damaged entry costs a cold start, never a
// failed run.
const libMagic uint32 = 0x454c574d // "MWLE"

func (l *Library) disk() cas.Dir { return cas.Dir{Root: l.dir, Ext: ".mwe", Magic: libMagic} }

// encodeLibEntry lays out one entry's payload.
func encodeLibEntry(e *entry, windowPx int, pixelNM float64, mask *grid.Field) *frame.Writer {
	w := frame.NewFrame(128 + 8*len(e.sig.Desc) + 8*len(mask.Data))
	w.I64(libVersion)
	w.Raw(e.fam[:])
	w.Put(&windowPx, &pixelNM)
	w.Put(e.scalars()...)
	w.I64(SignatureK)
	w.Floats(e.sig.Desc[:])
	w.Floats(mask.Data)
	return w
}

// writeEntry persists one library entry. Best-effort: failures are
// logged and the entry simply stays memory-only for this process.
func (l *Library) writeEntry(e *entry, windowPx int, pixelNM float64, mask *grid.Field) {
	data := encodeLibEntry(e, windowPx, pixelNM, mask).Seal(libMagic)
	if _, err := l.disk().Put(e.key, data); err != nil {
		obs.Logger().Warn("warmstart: writing entry", "key", e.key, "err", err)
	}
}

// readEntry loads and fully verifies the entry stored under key: the
// frame must hold, the payload must decode, and its content must hash
// back to key.
func (l *Library) readEntry(key string) (*entry, *grid.Field, error) {
	payload, err := l.disk().Get(key)
	if err != nil {
		return nil, nil, err
	}
	e, mask, err := decodeLibEntry(payload)
	if err != nil {
		return nil, nil, err
	}
	if e.key != key {
		return nil, nil, fmt.Errorf("entry content digest %s does not match its key %s", e.key, key)
	}
	return e, mask, nil
}

// scalars lists the entry's fixed-size fields in payload order.
func (e *entry) scalars() []any {
	return []any{&e.offX, &e.offY, &e.sig.Polys, &e.sig.AreaFrac, &e.sig.WFrac, &e.sig.HFrac}
}

// decodeLibEntry rebuilds an entry's index record and stored mask from
// its payload.
func decodeLibEntry(payload []byte) (*entry, *grid.Field, error) {
	r := frame.NewReader(payload)
	r.Version(libVersion)
	e := &entry{}
	copy(e.fam[:], r.Raw(len(e.fam)))
	windowPx := r.I64()
	r.F64() // pixelNM: recorded for inspection, covered by the family digest
	r.Get(e.scalars()...)
	if k := r.I64(); r.Err() == nil && k != SignatureK {
		r.Fail("entry descriptor is %dx%d, this build wants %dx%d", k, k, SignatureK, SignatureK)
	}
	for i := range e.sig.Desc {
		e.sig.Desc[i] = r.F64()
	}
	mask := r.Grid(windowPx, windowPx)
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	e.key = entryKey(e.fam, &e.sig)
	return e, mask, nil
}
