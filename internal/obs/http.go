package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugHandler returns the debug mux served by ServeDebug: live profiling
// under /debug/pprof/ and the Prometheus text dump at /metrics.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w)
	})
	return mux
}

// ServeDebug binds addr (e.g. ":6060"; ":0" picks a free port) and serves
// DebugHandler in a background goroutine for the life of the process. It
// returns the bound address so callers can report or scrape it.
func ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, DebugHandler())
	return ln.Addr().String(), nil
}
