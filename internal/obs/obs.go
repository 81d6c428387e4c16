// Package obs is the observability backbone of the pipeline: a
// process-wide metrics registry (atomic counters, gauges and fixed-bucket
// histograms) exposed as a Prometheus text dump, lightweight span timing
// that feeds the histograms and can stream a Perfetto trace_event file —
// the encoding a job's GET /v1/jobs/{id}/trace serves — and a leveled
// log/slog logger shared by every layer.
//
// Everything is stdlib-only and safe for concurrent use. The hot layers
// (optics, fft, sim, ilt) record into package-level metrics; the cost of a
// disabled observer is one atomic add per event, so instrumentation stays
// on permanently and the CLIs merely choose what to surface (-log-level,
// -pprof, -trace).
package obs

import (
	"log/slog"
	"os"
	"sync/atomic"
)

// logLevel is the level of the default handler; SetLogLevel adjusts it at
// run time without rebuilding the logger.
var logLevel = func() *slog.LevelVar {
	v := new(slog.LevelVar)
	v.Set(slog.LevelWarn) // library default: quiet unless a CLI opts in
	return v
}()

var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})))
}

// Logger returns the process-wide logger. The default writes text to
// stderr at LevelWarn.
func Logger() *slog.Logger { return logger.Load() }

// SetLogger replaces the process-wide logger. A nil logger restores the
// stderr default.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))
	}
	logger.Store(l)
}

// SetLogLevel adjusts the level of the default handler. Custom loggers
// installed via SetLogger govern their own level.
func SetLogLevel(l slog.Level) { logLevel.Set(l) }
