package serve

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// routeDocRe matches one route line of the Handler doc comment:
//
//	//	POST /v1/jobs    description...
var routeDocRe = regexp.MustCompile(`(?m)^//\t(GET|POST) +(/\S+)`)

// documentedRoutes extracts the method+pattern pairs from the Handler
// doc comment in http.go.
func documentedRoutes(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("http.go")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	start := strings.Index(text, "// Handler returns the server's HTTP API.")
	end := strings.Index(text, "func (s *Server) Handler")
	if start < 0 || end < 0 || end < start {
		t.Fatal("cannot locate the Handler doc comment in http.go")
	}
	out := make(map[string]bool)
	for _, m := range routeDocRe.FindAllStringSubmatch(text[start:end], -1) {
		out[m[1]+" "+m[2]] = true
	}
	if len(out) == 0 {
		t.Fatal("no routes found in the Handler doc comment; was the format changed?")
	}
	return out
}

// TestRouteTableMatchesDocs pins the Handler doc comment to the actual
// mux registrations, both ways: a route added to routes() must be
// documented, and a documented route must exist. The same discipline
// cmd/mosaicd applies to its README flag table.
func TestRouteTableMatchesDocs(t *testing.T) {
	documented := documentedRoutes(t)
	registered := make(map[string]bool)
	var s Server
	for _, rt := range s.routes() {
		registered[rt.pattern] = true
	}
	for r := range registered {
		if !documented[r] {
			t.Errorf("route %q is registered but missing from the Handler doc comment", r)
		}
	}
	for r := range documented {
		if !registered[r] {
			t.Errorf("route %q is documented but not registered", r)
		}
	}
}

// TestRoutesCoverArtifactAPI pins the artifact/provenance surface
// specifically: redesigning the API away from these routes is a
// breaking change and must be deliberate.
func TestRoutesCoverArtifactAPI(t *testing.T) {
	var s Server
	want := map[string]bool{
		"GET /v1/jobs/{id}/provenance":      false,
		"GET /v1/artifacts/{digest}":        false,
		"GET /v1/artifacts/{digest}/verify": false,
		"GET /v1/jobs/{id}/mask":            false,
	}
	for _, rt := range s.routes() {
		if _, ok := want[rt.pattern]; ok {
			want[rt.pattern] = true
		}
	}
	for r, found := range want {
		if !found {
			t.Errorf("route %q is missing from routes()", r)
		}
	}
}
