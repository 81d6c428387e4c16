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
	addr          string
	workers       int
	queue         int
	grid          int
	checkpointDir string
	drainTimeout  time.Duration
	worker        bool
	join          string
	advertise     string
	leaseTTL      time.Duration
	heartbeatTTL  time.Duration
	stores        *cli.StoreFlags
	obs           *cli.ObsFlags
}

// defineFlags registers every mosaicd flag on fs, including the shared
// store and observability flag sets.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&o.workers, "workers", 1, "concurrently running jobs (or, in -worker mode, concurrently served tiles, each holding one core reservation while it computes); 0 is taken as 1")
	fs.IntVar(&o.queue, "queue", 64, "maximum queued jobs")
	fs.IntVar(&o.grid, "grid", 512, "default simulation grid size (power of two); jobs may override")
	fs.StringVar(&o.checkpointDir, "checkpoint-dir", "", "directory for drain checkpoints; needs -cache-dir, where a resumed job finds its finished windows (empty = no fault tolerance)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 60*time.Second, "how long a shutdown waits for in-flight jobs to checkpoint")
	fs.BoolVar(&o.worker, "worker", false, "run as a cluster worker serving tile jobs (requires -join)")
	fs.StringVar(&o.join, "join", "", "coordinator base URL to join in -worker mode, e.g. http://host:8080")
	fs.StringVar(&o.advertise, "advertise", "", "base URL the coordinator dials for this worker (default: derived from -addr)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 5*time.Minute, "coordinator: how long one dispatched tile may run before reassignment")
	fs.DurationVar(&o.heartbeatTTL, "heartbeat-ttl", 15*time.Second, "coordinator: how long a silent worker stays in the fleet")
	o.stores = cli.AddStoreFlags(fs, 256) // jobs share the daemon cache: memory tier on by default
	o.obs = cli.AddObsFlags(fs)
	return o
}

// validate rejects the flag values neither serving mode can honour. The
// number every job inherits (-grid) is mosaic.Admit's to judge, asked about the plainest job there is, a contest-size clip with
// no options: a daemon that refuses it would answer 400 to everything.
func (o *options) validate() error {
	if o.workers < 0 {
		return &mosaic.ConfigError{Field: "workers", Reason: fmt.Sprintf("must be >= 0 (0 is taken as 1), got %d", o.workers)}
	}
	return mosaic.Admit(mosaic.DefaultOptics(), o.grid, &mosaic.Layout{Name: "probe", SizeNM: 1024},
		mosaic.DefaultConfig(mosaic.ModeFast), mosaic.TileOptions{})
}
