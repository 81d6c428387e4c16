package geom

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func square(x, y, s float64) Polygon { return Rect{X: x, Y: y, W: s, H: s}.Polygon() }

func TestRectPolygon(t *testing.T) {
	p := Rect{X: 1, Y: 2, W: 3, H: 4}.Polygon()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Area() != 12 {
		t.Fatalf("area %g", p.Area())
	}
	bb := p.BBox()
	if bb.X != 1 || bb.Y != 2 || bb.W != 3 || bb.H != 4 {
		t.Fatalf("bbox %+v", bb)
	}
}

func TestPolygonValidate(t *testing.T) {
	if err := (Polygon{{0, 0}, {1, 0}, {1, 1}}).Validate(); err == nil {
		t.Fatal("triangle count accepted")
	}
	diag := Polygon{{0, 0}, {1, 1}, {1, 2}, {0, 2}}
	if err := diag.Validate(); err == nil {
		t.Fatal("diagonal edge accepted")
	}
	dup := Polygon{{0, 0}, {0, 0}, {1, 0}, {1, 1}}
	if err := dup.Validate(); err == nil {
		t.Fatal("zero-length edge accepted")
	}
}

func TestEdges(t *testing.T) {
	p := square(0, 0, 10)
	es := p.Edges()
	if len(es) != 4 {
		t.Fatalf("%d edges", len(es))
	}
	nh := 0
	for _, e := range es {
		if e.Horizontal {
			nh++
		}
		if e.Len() != 10 {
			t.Fatalf("edge length %g", e.Len())
		}
	}
	if nh != 2 {
		t.Fatalf("%d horizontal edges", nh)
	}
}

func TestLayoutValidate(t *testing.T) {
	l := &Layout{Name: "x", SizeNM: 100, Polys: []Polygon{square(10, 10, 20)}}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	l2 := &Layout{Name: "x", SizeNM: 100, Polys: []Polygon{square(90, 90, 20)}}
	if err := l2.Validate(); err == nil {
		t.Fatal("out-of-clip polygon accepted")
	}
	l3 := &Layout{SizeNM: 0}
	if err := l3.Validate(); err == nil {
		t.Fatal("zero-size clip accepted")
	}
}

func TestRasterizeRect(t *testing.T) {
	l := &Layout{Name: "r", SizeNM: 64, Polys: []Polygon{square(16, 16, 32)}}
	f := l.Rasterize(64, 1)
	// Pixel centers at 16.5..47.5 are inside [16,48): 32 pixels per row.
	count := 0
	for _, v := range f.Data {
		if v > 0 {
			count++
		}
	}
	if count != 32*32 {
		t.Fatalf("rasterized %d pixels, want %d", count, 32*32)
	}
	if f.At(15, 30) != 0 || f.At(16, 30) != 1 || f.At(47, 30) != 1 || f.At(48, 30) != 0 {
		t.Fatal("rect boundary misrasterized")
	}
}

func TestRasterizeLShape(t *testing.T) {
	// L-shape area = full square minus the notch.
	p := Polygon{{0, 0}, {40, 0}, {40, 20}, {20, 20}, {20, 40}, {0, 40}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Area() != 40*40-20*20 {
		t.Fatalf("L area %g", p.Area())
	}
	l := &Layout{Name: "l", SizeNM: 64, Polys: []Polygon{p}}
	f := l.Rasterize(64, 1)
	got := f.Sum()
	if got != 40*40-20*20 {
		t.Fatalf("rasterized area %g, want %d", got, 40*40-20*20)
	}
	if f.At(30, 30) != 0 {
		t.Fatal("notch pixel filled")
	}
	if f.At(10, 30) != 1 {
		t.Fatal("leg pixel empty")
	}
}

// Property: rasterized area approximates polygon area for random rects at
// random pixel sizes.
func TestRasterizeAreaProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 10 + rng.Float64()*40
		h := 10 + rng.Float64()*40
		x := 5 + rng.Float64()*20
		y := 5 + rng.Float64()*20
		l := &Layout{Name: "p", SizeNM: 128, Polys: []Polygon{Rect{X: x, Y: y, W: w, H: h}.Polygon()}}
		px := 2.0
		ras := l.Rasterize(64, px)
		got := ras.Sum() * px * px
		want := w * h
		// One pixel of slack around the perimeter.
		slack := 2 * (w + h) * px
		return math.Abs(got-want) <= slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePointsRect(t *testing.T) {
	l := &Layout{Name: "s", SizeNM: 200, Polys: []Polygon{square(40, 40, 120)}}
	ss := l.SamplePoints(40)
	if len(ss) != 12 { // 3 samples per 120 nm edge x 4 edges
		t.Fatalf("%d samples, want 12", len(ss))
	}
	for _, s := range ss {
		// Inward normal must point toward the square's interior.
		in := Point{s.Pt.X + s.InwardX*5, s.Pt.Y + s.InwardY*5}
		if in.X < 40 || in.X > 160 || in.Y < 40 || in.Y > 160 {
			t.Fatalf("inward normal points outside: sample %+v", s)
		}
		out := Point{s.Pt.X - s.InwardX*5, s.Pt.Y - s.InwardY*5}
		if out.X > 40 && out.X < 160 && out.Y > 40 && out.Y < 160 {
			t.Fatalf("outward direction is inside: sample %+v", s)
		}
		// Horizontal flag matches edge orientation: on top/bottom edges the
		// sample's y is 40 or 160.
		onHoriz := s.Pt.Y == 40 || s.Pt.Y == 160
		if s.Horizontal != onHoriz {
			t.Fatalf("Horizontal flag wrong at %+v", s.Pt)
		}
	}
}

func TestSamplePointsShortEdge(t *testing.T) {
	l := &Layout{Name: "s", SizeNM: 100, Polys: []Polygon{square(40, 40, 20)}}
	ss := l.SamplePoints(40)
	if len(ss) != 4 { // one midpoint per 20 nm edge
		t.Fatalf("%d samples, want 4", len(ss))
	}
	for _, s := range ss {
		mid := s.Pt.X == 50 || s.Pt.Y == 50
		if !mid {
			t.Fatalf("short-edge sample not at midpoint: %+v", s.Pt)
		}
	}
}

func TestSamplePointsCWPolygon(t *testing.T) {
	// Clockwise ring: normals must still point inward.
	cw := Polygon{{40, 40}, {40, 160}, {160, 160}, {160, 40}}
	l := &Layout{Name: "cw", SizeNM: 200, Polys: []Polygon{cw}}
	for _, s := range l.SamplePoints(40) {
		in := Point{s.Pt.X + s.InwardX*5, s.Pt.Y + s.InwardY*5}
		if in.X < 40 || in.X > 160 || in.Y < 40 || in.Y > 160 {
			t.Fatalf("CW ring: inward normal points outside at %+v", s.Pt)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	l := &Layout{
		Name:   "round trip",
		SizeNM: 512,
		Polys: []Polygon{
			square(100, 100, 50),
			{{200, 200}, {300, 200}, {300, 250}, {260, 250}, {260, 300}, {200, 300}},
		},
	}
	var sb strings.Builder
	if err := Write(&sb, l); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SizeNM != l.SizeNM || len(got.Polys) != len(l.Polys) {
		t.Fatalf("round trip: %+v", got)
	}
	if got.TotalArea() != l.TotalArea() {
		t.Fatalf("area changed: %g vs %g", got.TotalArea(), l.TotalArea())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"RECT 1 2 3 4",                   // before CLIP
		"CLIP a 100\nRECT 1 2 3",         // short RECT
		"CLIP a 100\nPOLY 0 0 1 0 1 1",   // short POLY
		"CLIP a 100\nBOGUS 1",            // unknown statement
		"CLIP a\n",                       // malformed CLIP
		"",                               // empty
		"CLIP a 100\nRECT 90 90 20 20\n", // outside clip
	}
	for i, s := range bad {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestParseCommentsAndBlank(t *testing.T) {
	src := "# a comment\n\nCLIP test 100\n# another\nRECT 10 10 20 20\n"
	l, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "test" || len(l.Polys) != 1 {
		t.Fatalf("%+v", l)
	}
}

func TestComponents(t *testing.T) {
	l := &Layout{Name: "c", SizeNM: 64, Polys: []Polygon{square(8, 8, 16), square(40, 40, 16)}}
	f := l.Rasterize(64, 1)
	_, n := Components(f)
	if n != 2 {
		t.Fatalf("%d components, want 2", n)
	}
}

func TestCountHoles(t *testing.T) {
	// A ring (square with a hole) has exactly one hole.
	ring := &Layout{Name: "r", SizeNM: 64, Polys: []Polygon{square(8, 8, 48)}}
	f := ring.Rasterize(64, 1)
	// Punch a hole manually.
	for y := 24; y < 40; y++ {
		for x := 24; x < 40; x++ {
			f.Set(x, y, 0)
		}
	}
	if got := CountHoles(f); got != 1 {
		t.Fatalf("%d holes, want 1", got)
	}
	// Solid square: no holes.
	solid := ring.Rasterize(64, 1)
	if got := CountHoles(solid); got != 0 {
		t.Fatalf("%d holes in solid, want 0", got)
	}
}

// Property: every EPE sample lies exactly on an edge of its polygon and
// every inward normal is unit length and axis-aligned.
func TestSamplePointsOnEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := 20 + rng.Float64()*30
		y := 20 + rng.Float64()*30
		w := 30 + rng.Float64()*60
		h := 30 + rng.Float64()*60
		l := &Layout{Name: "p", SizeNM: 200, Polys: []Polygon{Rect{X: x, Y: y, W: w, H: h}.Polygon()}}
		for _, s := range l.SamplePoints(25) {
			onV := (s.Pt.X == x || s.Pt.X == x+w) && s.Pt.Y >= y && s.Pt.Y <= y+h
			onH := (s.Pt.Y == y || s.Pt.Y == y+h) && s.Pt.X >= x && s.Pt.X <= x+w
			if !onV && !onH {
				return false
			}
			if s.Horizontal != onH {
				return false
			}
			n := math.Hypot(s.InwardX, s.InwardY)
			if math.Abs(n-1) > 1e-12 {
				return false
			}
			if s.InwardX != 0 && s.InwardY != 0 {
				return false // not axis-aligned
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: sample count scales with the perimeter.
func TestSampleCountMatchesPerimeter(t *testing.T) {
	l := &Layout{Name: "p", SizeNM: 400, Polys: []Polygon{Rect{X: 40, Y: 40, W: 320, H: 320}.Polygon()}}
	ss := l.SamplePoints(40)
	// Each 320 nm edge carries exactly 8 samples at 40 nm pitch.
	if len(ss) != 32 {
		t.Fatalf("%d samples, want 32", len(ss))
	}
}
