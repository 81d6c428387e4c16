package cluster

import (
	"fmt"
	"math"
	"time"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
	"mosaic/internal/tile"
)

// Wire format. Every message is one frame (internal/frame) whose magic
// distinguishes job from result, carrying the canonical scalar stream:
// floats are IEEE-754 bit patterns so the round trip is exact and the
// bit-identity guarantee survives the wire. A tile-job payload is a
// self-contained work order: tile index, window grid, the imaging,
// resist and optimizer parameters (ilt.Bits), the window's clipped
// geometry, its EPE samples and any warm-start seed. A tile-result
// payload is the tile index, the shared result body (ilt.NewResultFrame)
// and the worker's trace spans.
const (
	magicTileJob    uint32 = 0x424a544d // "MTJB"
	magicTileResult uint32 = 0x5352544d // "MTRS"
)

// tileJob is the worker-side decoding of one tile work order.
type tileJob struct {
	TileIndex int
	WindowPx  int
	PixelNM   float64
	Optics    optics.Config
	Resist    resist.Model
	Cfg       ilt.Config
	Layout    *geom.Layout
	Samples   []geom.Sample
}

// encodeTileJob serializes a scheduler request into a job payload. The
// OnIter hook does not cross the wire — the scheduler has already forced
// it off for tiled runs, and a window's ilt.iter instants come back with
// its result.
func encodeTileJob(req *tile.Request) []byte {
	seed := req.Cfg.SeedMask
	n := 4096 // scalars, name and a typical window's geometry; grows if not
	if seed != nil {
		n += 8 * len(seed.Data)
	}
	w := frame.NewFrame(n)
	w.I64(int64(req.Tile.Index))
	w.I64(int64(req.Plan.WindowPx))
	w.F64(req.Plan.PixelNM)
	ilt.Bits{Optics: &req.Sim.Cfg, Resist: &req.Sim.Resist, Cfg: &req.Cfg}.Append(w)
	w.Str(req.Tile.Layout.Name)
	req.Tile.Layout.AppendBits(w)
	geom.AppendSamples(w, req.Samples)
	// The warm-start seed crosses the wire so a remote worker starts its
	// descent exactly where a local run would.
	w.Field(seed)
	return w.Payload()
}

// decodeTileJob rebuilds a work order from a job payload.
func decodeTileJob(payload []byte) (*tileJob, error) {
	r := frame.NewReader(payload)
	j := &tileJob{Layout: &geom.Layout{}}
	j.TileIndex = int(r.I64())
	j.WindowPx = int(r.I64())
	j.PixelNM = r.F64()
	ilt.Bits{Optics: &j.Optics, Resist: &j.Resist, Cfg: &j.Cfg}.Read(r)
	j.Layout.Name = r.Str()
	j.Layout.ReadBits(r)
	j.Samples = geom.ReadSamples(r)
	j.Cfg.SeedMask = r.Field()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("cluster: decoding tile job: %w", err)
	}
	if j.WindowPx <= 0 || j.WindowPx > frame.MaxFieldDim {
		return nil, fmt.Errorf("cluster: implausible window size %d px", j.WindowPx)
	}
	return j, nil
}

// Span attribute value kinds on the wire.
const (
	attrKindString int64 = 0
	attrKindInt    int64 = 1
	attrKindFloat  int64 = 2
)

// encodeSpans appends a span section: the worker's buffered trace events,
// shipped back piggybacked on the result frame so the coordinator can
// assemble one cross-process trace.
func encodeSpans(w *frame.Writer, spans []obs.SpanEvent) {
	w.I64(int64(len(spans)))
	for _, ev := range spans {
		w.Put(&ev.Name, &ev.TraceID, &ev.SpanID, &ev.ParentID)
		w.I64(ev.Start.UnixMicro())
		w.I64(ev.Dur.Microseconds())
		w.Bool(ev.Instant)
		w.I64(int64(len(ev.Attrs)))
		for _, a := range ev.Attrs {
			w.Str(a.Key)
			switch v := a.Value.(type) {
			case string:
				w.I64(attrKindString)
				w.Str(v)
			case int64:
				w.I64(attrKindInt)
				w.I64(v)
			case float64:
				w.I64(attrKindFloat)
				w.F64(v)
			default:
				// Unknown kinds degrade to their string form rather than
				// corrupting the frame.
				w.I64(attrKindString)
				w.Str(fmt.Sprint(v))
			}
		}
	}
}

// decodeSpans reads the span section written by encodeSpans.
func decodeSpans(r *frame.Reader) []obs.SpanEvent {
	n := r.Count(8 * 7) // name/trace/span/parent lengths + start + dur + instant
	if n == 0 {
		return nil
	}
	spans := make([]obs.SpanEvent, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		var ev obs.SpanEvent
		r.Get(&ev.Name, &ev.TraceID, &ev.SpanID, &ev.ParentID)
		ev.Start = time.UnixMicro(r.I64())
		us := r.I64()
		if us > math.MaxInt64/1000 || us < math.MinInt64/1000 {
			r.Fail("cluster: span duration %d us overflows a time.Duration", us)
		}
		ev.Dur = time.Duration(us) * time.Microsecond
		ev.Instant = r.Bool()
		nAttrs := r.Count(8 * 3) // key length + kind + value
		for k := 0; k < nAttrs && r.Err() == nil; k++ {
			a := obs.Attr{Key: r.Str()}
			switch kind := r.I64(); kind {
			case attrKindString:
				a.Value = r.Str()
			case attrKindInt:
				a.Value = r.I64()
			case attrKindFloat:
				a.Value = r.F64()
			default:
				r.Fail("cluster: unknown span attribute kind %d", kind)
			}
			ev.Attrs = append(ev.Attrs, a)
		}
		spans = append(spans, ev)
	}
	return spans
}

// encodeTileResult serializes one tile's optimization outcome plus the
// worker's buffered trace spans. Only the fields the coordinator stitches
// and caches cross the wire; History is per-tile diagnostics and stays on
// the worker.
func encodeTileResult(index int, res *ilt.Result, spans []obs.SpanEvent) ([]byte, error) {
	if res == nil || res.MaskGray == nil {
		return nil, fmt.Errorf("cluster: tile %d result has no gray mask", index)
	}
	w := ilt.NewResultFrame(int64(index), res)
	encodeSpans(w, spans)
	return w.Payload(), nil
}

// decodeTileResult rebuilds a tile result and its shipped spans. The span
// section is part of the layout: every peer join admits writes one.
func decodeTileResult(payload []byte) (int, *ilt.Result, []obs.SpanEvent, error) {
	r := frame.NewReader(payload)
	idx := int(r.I64())
	res := ilt.ReadResult(r)
	spans := decodeSpans(r)
	if err := r.Done(); err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: decoding tile result: %w", err)
	}
	return idx, res, spans, nil
}
