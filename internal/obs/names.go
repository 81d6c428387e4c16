package obs

import "strings"

// Name is one row of the name table below: a span or an instant event the
// program can emit. StartSpan and Event take only a *Name, so the set of
// trace names — and of span_<name>_seconds series — is the table, whatever
// a caller passes in; README "Observability" lists the same rows
// (TestReadmeDocumentsNames).
type Name struct {
	name string
	hist *Histogram // span_<name>_seconds; nil for an instant
}

// String returns the dotted name, as traces carry it.
func (n *Name) String() string { return n.name }

// names is the table in declaration order.
var names []*Name

// span declares a span name and registers its duration histogram:
// "optics.build_kernels" -> span_optics_build_kernels_seconds.
func span(name string) *Name {
	n := instant(name)
	n.hist = NewHistogram("span_" + strings.ReplaceAll(name, ".", "_") + "_seconds")
	return n
}

// instant declares the name of an instant event.
func instant(name string) *Name {
	n := &Name{name: name}
	names = append(names, n)
	return n
}

// Plane indexes the closed set of suffixes a per-focus-plane span name
// ends in: the paper's three corner names, and one label shared by every
// other corner, so a caller's corner names never become metric names.
type Plane int

var planeLabels = [...]string{"nominal", "inner", "outer", "custom"}

// PlaneOf maps a process corner's name onto the set.
func PlaneOf(corner string) Plane {
	for p, label := range planeLabels {
		if label == corner {
			return Plane(p)
		}
	}
	return Plane(len(planeLabels) - 1)
}

// perPlane declares base.<plane> for every Plane; index it with one.
func perPlane(base string) (ns [len(planeLabels)]*Name) {
	for p, label := range planeLabels {
		ns[p] = span(base + "." + label)
	}
	return ns
}

// The spans, outermost first.
var (
	ServeJob           = span("serve.job")
	TilePipeline       = span("tile.pipeline")
	TileOptimize       = span("tile.optimize")
	TileEvaluate       = span("tile.evaluate")
	OpticsBuildKernels = span("optics.build_kernels")
	IltRun             = span("ilt.run")
	IltIteration       = span("ilt.iteration")
	IltForward         = perPlane("ilt.forward")
	SimAerial          = perPlane("sim.aerial")
	SimAerialCombined  = perPlane("sim.aerial_combined")
	SimAerialPlanes    = span("sim.aerial_planes")
)

// The instants; internal/serve publishes each on a job's event stream.
var (
	IltIter  = instant("ilt.iter")
	TileDone = instant("tile.done")
)
