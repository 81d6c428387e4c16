package geom

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mosaic/internal/frame"
)

// TestAppendSamplesIsThePutStream: the typed sample writes are byte for
// byte the stream one Writer.Put a sample wrote, which every cache key
// and manifest digest was taken over, on random samples that include
// the float patterns a careless encoding would fold (−0, NaN, ±Inf).
func TestAppendSamplesIsThePutStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	f := func() float64 {
		if rng.Intn(4) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return (rng.Float64() - 0.5) * 4096
	}
	for trial := 0; trial < 200; trial++ {
		samples := make([]Sample, rng.Intn(40))
		for i := range samples {
			samples[i] = Sample{Pt: Point{X: f(), Y: f()}, Horizontal: rng.Intn(2) == 0, InwardX: f(), InwardY: f()}
		}
		typed := frame.NewFrame(0)
		AppendSamples(typed, samples)
		put := frame.NewFrame(0)
		put.I64(int64(len(samples)))
		for i := range samples {
			s := &samples[i]
			put.Put(&s.Pt.X, &s.Pt.Y, &s.Horizontal, &s.InwardX, &s.InwardY)
		}
		if !bytes.Equal(typed.Payload(), put.Payload()) {
			t.Fatalf("trial %d: %d samples hash %x, the Put stream is %x", trial, len(samples), typed.Payload(), put.Payload())
		}
	}
}
