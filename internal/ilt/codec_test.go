package ilt

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"mosaic/internal/frame"
	"mosaic/internal/grid"
	"mosaic/internal/optics"
	"mosaic/internal/resist"
)

// notBits are the Config fields that do not determine a run's bits:
// diagnostics and the hooks the scheduler forces off for tiled runs. A
// new field of Config, optics.Config or resist.Model belongs either in
// Bits.Fields (the seed aside) or here; TestBitsFieldsClassifyEveryField
// fails until it is one of the two.
var notBits = map[string]bool{
	"Config.TrackMetrics": true,
	"Config.OnIter":       true,
}

func testBits() (Bits, func() []byte) {
	oc, rm, cfg := optics.Default(), resist.Default(), DefaultConfig(ModeFast)
	b := Bits{Optics: &oc, Resist: &rm, Cfg: &cfg}
	return b, func() []byte {
		w := frame.NewFrame(0)
		b.Append(w)
		w.Field(cfg.SeedMask)
		return w.Payload()
	}
}

// TestBitsFieldsClassifyEveryField reflects over the three parameter
// structs: perturbing any field must change the canonical stream unless
// the field is declared in notBits, so a parameter added to a struct but
// to neither list — one that would silently serve stale cache entries
// and under-determine manifests — fails here.
func TestBitsFieldsClassifyEveryField(t *testing.T) {
	b, stream := testBits()
	base := stream()
	leaves := 0

	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		}
		if notBits[path] {
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
			leaves++
		case reflect.Int:
			v.SetInt(v.Int() + 1)
			leaves++
		case reflect.Bool:
			v.SetBool(!v.Bool())
			leaves++
		default:
			if seed, ok := v.Addr().Interface().(**grid.Field); ok {
				*seed = grid.New(2, 2)
				break
			}
			t.Errorf("%s: a %s field is neither encodable by Bits nor listed in notBits", path, v.Type())
			return
		}
		if bytes.Equal(stream(), base) {
			t.Errorf("%s does not reach the canonical stream: list it in Bits.Fields or in notBits", path)
		}
		v.Set(old)
	}
	walk(reflect.ValueOf(b.Optics).Elem(), "optics")
	walk(reflect.ValueOf(b.Resist).Elem(), "resist")
	walk(reflect.ValueOf(b.Cfg).Elem(), "Config")

	// And the other way round: every row of the table is a distinct
	// field of one of the structs, under a distinct manifest key.
	rows, ptrs, names := 0, map[any]bool{}, map[string]bool{}
	b.Fields(func(section, name string, p any) {
		rows++
		ptrs[p] = true
		names[section+"."+name] = true
	})
	if rows != leaves || len(ptrs) != rows || len(names) != rows {
		t.Errorf("Fields lists %d rows (%d distinct fields, %d distinct keys) for %d scalar struct fields", rows, len(ptrs), len(names), leaves)
	}
	for path := range notBits {
		name := path[len("Config."):]
		if _, ok := reflect.TypeOf(Config{}).FieldByName(name); !ok {
			t.Errorf("notBits lists %s, which Config no longer has", path)
		}
	}
}

// TestValidateRefusesNonFiniteFloats walks the optimizer rows of
// Bits.Fields: each float set to NaN or an infinity is a *ConfigError
// naming that field, so no bound is passed by a value that compares false
// with everything.
func TestValidateRefusesNonFiniteFloats(t *testing.T) {
	b, _ := testBits()
	// The Go name of each Config float, by address: what a ConfigError says.
	names := map[*float64]string{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(v.Field(i), name)
			}
		case reflect.Float64:
			names[v.Addr().Interface().(*float64)] = path
		}
	}
	walk(reflect.ValueOf(b.Cfg).Elem(), "")

	probed := 0
	b.Fields(func(section, key string, p any) {
		f, ok := p.(*float64)
		if section != "optimizer" || !ok {
			return
		}
		probed++
		old := *f
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			*f = bad
			err := b.Cfg.Validate(b.Optics.GridSize, b.Optics.PixelNM)
			var cerr *ConfigError
			if !errors.As(err, &cerr) || cerr.Field != names[f] {
				t.Errorf("%s = %g: Validate = %v, want a *ConfigError on %s", key, bad, err, names[f])
			}
		}
		*f = old
	})
	if probed != len(names) {
		t.Errorf("probed %d optimizer floats, Config has %d", probed, len(names))
	}
	if err := b.Cfg.Validate(b.Optics.GridSize, b.Optics.PixelNM); err != nil {
		t.Fatalf("the restored defaults fail Validate: %v", err)
	}
}

func TestBitsReadRoundTrip(t *testing.T) {
	b, _ := testBits()
	b.Cfg.Mode, b.Cfg.SRAFInit, b.Optics.Kernels = ModeExact, false, 7
	var oc optics.Config
	var rm resist.Model
	var cfg Config
	w := frame.NewFrame(0)
	b.Append(w)
	r := frame.NewReader(w.Payload())
	Bits{Optics: &oc, Resist: &rm, Cfg: &cfg}.Fields(func(_, _ string, p any) { r.Get(p) })
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if oc != *b.Optics || rm != *b.Resist || !reflect.DeepEqual(cfg, *b.Cfg) {
		t.Fatalf("Read(Append) drifted:\n%+v\n%+v", cfg, *b.Cfg)
	}
	if _, ok := b.Sections()["optimizer"]["dose_delta"]; !ok || len(b.Sections()) != 3 {
		t.Fatalf("Sections = %v, want optics/resist/optimizer with dose_delta", b.Sections())
	}
}

func codecResult(w int) *Result {
	g := grid.New(w, w)
	for i := range g.Data {
		g.Data[i] = float64(i%5) / 4
	}
	return &Result{MaskGray: g, Mask: g.Threshold(0.5), Objective: 12.5, Iterations: 9, RuntimeSec: 0.75, Seeded: true}
}

// encodeResult returns the result body: the payload after its lead scalar.
func encodeResult(res *Result) []byte { return NewResultFrame(0, res).Payload()[8:] }

func TestResultCodec(t *testing.T) {
	in := codecResult(4)
	payload := encodeResult(in)
	if w := NewResultFrame(0, in); cap(w.Seal(0)) != frame.HeaderLen+8+len(payload) {
		t.Fatalf("frame of a %d byte body grew to %d bytes: NewResultFrame must size it once", len(payload), cap(w.Seal(0)))
	}
	r := frame.NewReader(payload)
	out := ReadResult(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	in.History, in.DiagnosticsSec = nil, 0
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", in, out)
	}

	// A window size beyond frame.MaxFieldDim is rejected on the scalar,
	// before the raster it promises could be allocated — and so is one
	// the payload is too short for.
	for _, side := range []int64{frame.MaxFieldDim + 1, 5, 0, -4} {
		w := frame.NewFrame(0)
		w.I64(side)
		w.Raw(payload[8:])
		r := frame.NewReader(w.Payload())
		if res := ReadResult(r); res != nil || r.Err() == nil {
			t.Errorf("window size %d accepted", side)
		}
	}
}

// FuzzReadResult: error or exact round-trip, never a panic.
func FuzzReadResult(f *testing.F) {
	f.Add(encodeResult(codecResult(2)))
	f.Add(encodeResult(codecResult(1))[:40])
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := frame.NewReader(payload)
		res := ReadResult(r)
		if r.Done() != nil {
			return
		}
		if !bytes.Equal(encodeResult(res), payload) {
			t.Fatal("decoded result does not re-encode to its bytes")
		}
	})
}
