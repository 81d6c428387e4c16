package cli

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"mosaic/internal/obs"
)

// ObsFlags is the observability flag set shared by every command:
//
//	-v                 shorthand for -log-level debug
//	-log-level LEVEL   debug, info, warn or error (default info)
//	-pprof ADDR        serve net/http/pprof and /metrics
//	-trace FILE        write every span and instant as Perfetto trace_event JSON
//	-version           print build info and exit
//
// Register with AddObsFlags before flag.Parse, then call Setup once after
// parsing and defer the returned cleanup.
type ObsFlags struct {
	Verbose  bool
	LogLevel string
	Pprof    string
	Trace    string
	Version  bool

	// Addr is the bound debug-server address after Setup when -pprof was
	// set (useful with ":0").
	Addr string
}

// AddObsFlags registers the shared observability flags on fs and returns
// the destination struct.
func AddObsFlags(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	fs.BoolVar(&f.Verbose, "v", false, "verbose logging (shorthand for -log-level debug)")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /metrics on this address (e.g. :6060)")
	fs.StringVar(&f.Trace, "trace", "", "write every span and instant to this file as Perfetto trace_event JSON")
	fs.BoolVar(&f.Version, "version", false, "print version and build info, then exit")
	return f
}

// ParseLogLevel maps a -log-level string to a slog.Level.
func ParseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
	}
}

// Setup applies the parsed flags: sets the process log level, starts the
// debug HTTP server, and opens the trace file. The returned cleanup stops
// tracing (closing the file's JSON array) and must be deferred by the
// caller; a trace the sink failed to write is logged at warn.
func (f *ObsFlags) Setup() (cleanup func(), err error) {
	if f.Version {
		fmt.Println(obs.ReadBuild())
		os.Exit(0)
	}
	lvl, err := ParseLogLevel(f.LogLevel)
	if err != nil {
		return nil, err
	}
	if f.Verbose {
		lvl = slog.LevelDebug
	}
	obs.SetLogLevel(lvl)
	if f.Pprof != "" {
		addr, err := obs.ServeDebug(f.Pprof)
		if err != nil {
			return nil, fmt.Errorf("starting debug server: %w", err)
		}
		f.Addr = addr
		obs.Logger().Info("debug server listening",
			"addr", addr, "endpoints", "/debug/pprof/ /metrics")
	}
	if f.Trace != "" {
		file, err := os.Create(f.Trace)
		if err != nil {
			return nil, fmt.Errorf("starting trace: %w", err)
		}
		obs.StartTrace(file)
		obs.Logger().Info("span trace enabled", "file", f.Trace)
	}
	return func() {
		if err := obs.StopTrace(); err != nil {
			obs.Logger().Warn("trace file is incomplete", "file", f.Trace, "err", err)
		}
	}, nil
}
