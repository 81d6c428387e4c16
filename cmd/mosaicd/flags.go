package main

import (
	"flag"
	"fmt"
	"time"

	"mosaic"
	"mosaic/internal/cli"
)

// options is every mosaicd flag destination; defineFlags is separate
// from main so the flag-docs test can instantiate the flag set and
// cross-check it against the README table.
type options struct {
	addr         string
	workers      int
	queue        int
	grid         int
	drainTimeout time.Duration
	stores       *cli.StoreFlags
	obs          *cli.ObsFlags
}

// defineFlags registers every mosaicd flag on fs, including the shared
// store and observability flag sets.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&o.workers, "workers", 1, "concurrently running jobs; 0 is taken as 1")
	fs.IntVar(&o.queue, "queue", 64, "maximum queued jobs; 0 is taken as 64")
	fs.IntVar(&o.grid, "grid", 512, "default simulation grid size (power of two); jobs may override")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 60*time.Second, "how long a shutdown waits for in-flight jobs to checkpoint")
	o.stores = cli.AddStoreFlags(fs, 256) // jobs share the daemon cache: memory tier on by default
	fs.Lookup("cache-dir").Usage += "; a drain checkpoints queued and running jobs into its jobs/ directory, and a restarted daemon resumes them"
	o.obs = cli.AddObsFlags(fs)
	return o
}

// validate rejects the flag values the daemon cannot honour: a negative
// count, and a drain that would give up before it checkpoints a single
// job. The number every job inherits (-grid) is mosaic.Admit's to judge,
// asked about the plainest job there is, a contest-size clip with no
// options: a daemon that refuses it would answer 400 to everything.
func (o *options) validate() error {
	if o.workers < 0 {
		return &mosaic.ConfigError{Field: "workers", Reason: fmt.Sprintf("must be >= 0 (0 is taken as 1), got %d", o.workers)}
	}
	if o.queue < 0 {
		return &mosaic.ConfigError{Field: "queue", Reason: fmt.Sprintf("must be >= 0 (0 is taken as 64), got %d", o.queue)}
	}
	if o.drainTimeout <= 0 {
		return &mosaic.ConfigError{Field: "drain-timeout", Reason: fmt.Sprintf("must be > 0, got %s", o.drainTimeout)}
	}
	return mosaic.Admit(mosaic.DefaultOptics(), o.grid, &mosaic.Layout{Name: "probe", SizeNM: 1024},
		mosaic.DefaultConfig(mosaic.ModeFast), mosaic.TileOptions{})
}
