package artifact

import (
	"fmt"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
)

// Frame magics (see internal/frame for the envelope).
const (
	blobMagic   uint32 = 0x4241544d // "MTAB": one stored artifact blob
	anchorMagic uint32 = 0x4e41544d // "MTAN": one anchor-log record
	fieldMagic  uint32 = 0x4647544d // "MTGF": one raw field raster
)

// resultVersion versions the EncodeResult payload layout. 2: the shared
// result body (ilt.NewResultFrame) with its runtime and seeded slots zeroed.
const resultVersion = 2

// EncodeResult serializes a tile result as its canonical artifact
// payload: version, then the shared result body. The encoding is
// deliberately runtime-free — RuntimeSec and Seeded are zeroed, so it
// covers the result's bits and nothing about where, when or from what
// starting point they were computed — so a cold run and a cached warm run
// of the same request produce byte-identical blobs, and therefore the same
// leaf digest and Merkle root.
func EncodeResult(res *ilt.Result) ([]byte, error) {
	if res == nil || res.MaskGray == nil || res.MaskGray.W != res.MaskGray.H || res.MaskGray.W <= 0 {
		return nil, fmt.Errorf("artifact: result has no square gray mask")
	}
	bits := &ilt.Result{MaskGray: res.MaskGray, Objective: res.Objective, Iterations: res.Iterations}
	return ilt.NewResultFrame(resultVersion, bits).Payload(), nil
}

// DecodeResult rebuilds a tile result from an artifact payload.
// RuntimeSec is zero because the artifact deliberately does not record
// it.
func DecodeResult(payload []byte) (*ilt.Result, error) {
	r := frame.NewReader(payload)
	r.Version(resultVersion)
	res := ilt.ReadResult(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("artifact: decoding result: %w", err)
	}
	return res, nil
}

// fieldVersion versions the EncodeFieldFrame payload layout.
const fieldVersion = 1

// EncodeFieldFrame wraps a raster as a self-describing MTGF frame —
// the raw-mask wire format of GET /v1/jobs/{id}/mask. Payload:
// version, W, H, then W*H float64 bit patterns in row-major order.
func EncodeFieldFrame(f *grid.Field) []byte {
	w := frame.NewFrame(24 + 8*len(f.Data))
	w.I64(fieldVersion)
	w.Field(f)
	return w.Seal(fieldMagic)
}

// DecodeFieldFrame parses an MTGF frame back into a raster.
func DecodeFieldFrame(data []byte) (*grid.Field, error) {
	payload, err := frame.Decode(fieldMagic, data)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	r := frame.NewReader(payload)
	r.Version(fieldVersion)
	f := r.Field()
	if f == nil {
		r.Fail("field frame holds no raster")
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("artifact: decoding field: %w", err)
	}
	return f, nil
}
