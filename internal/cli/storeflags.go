package cli

import (
	"flag"
	"fmt"

	"mosaic/internal/artifact"
	"mosaic/internal/cache"
	"mosaic/internal/warmstart"
)

// StoreFlags is the flag bundle of the three durable stores a run can be
// given, shared by the commands that run optimizations:
//
//	-cache-dir DIR      durable tile-result cache directory (sharded
//	                    entries, atomic writes, corrupt entries
//	                    quarantined and recomputed)
//	-cache-mem MIB      in-process cache byte budget in MiB; 0 disables
//	                    the memory tier
//	-warm-lib DIR       warm-start pattern library directory (same
//	                    layout and quarantine policy), opened with the
//	                    default retrieval distance and harvesting on
//	-artifact-dir DIR   Merkle-anchored provenance store directory
//
// Each store is off when its directory is unset — except the cache, which
// is memory-only then if -cache-mem is positive; -cache-dir alone gives a
// disk-only cache only if the command's memory default is 0.
type StoreFlags struct {
	CacheDir    string
	CacheMemMiB int64
	WarmLib     string
	ArtifactDir string
}

// Stores is what parsed StoreFlags opened; a nil handle means that store
// is off.
type Stores struct {
	Cache     *cache.Store
	WarmStart *warmstart.Library
	Artifact  *artifact.Store
}

// Close closes the stores that need closing; call it when the process is
// done with them.
func (s Stores) Close() {
	if s.Artifact != nil {
		s.Artifact.Close()
	}
}

// AddStoreFlags registers the store flags on fs. defaultCacheMemMiB seeds
// -cache-mem: the daemon defaults the memory tier on (jobs share it),
// one-shot tools default it off.
func AddStoreFlags(fs *flag.FlagSet, defaultCacheMemMiB int64) *StoreFlags {
	f := &StoreFlags{}
	fs.StringVar(&f.CacheDir, "cache-dir", "", "durable tile-result cache directory (empty = no disk tier)")
	fs.Int64Var(&f.CacheMemMiB, "cache-mem", defaultCacheMemMiB, "in-process tile-result cache budget in MiB (0 = no memory tier)")
	fs.StringVar(&f.WarmLib, "warm-lib", "", "warm-start pattern library directory (empty = warm-start off)")
	fs.StringVar(&f.ArtifactDir, "artifact-dir", "", "directory for the Merkle-anchored artifact store; every completed job commits a verifiable provenance record (empty = no provenance)")
	return f
}

// Open opens the stores the parsed flags describe. The warm-start library
// harvests what it is given (one that only reads never pays off) and
// retrieves within warmstart.DefaultMaxDist; a directory it cannot write
// is its *ilt.ConfigError on WarmStart.Dir. Close the result when done.
func (f *StoreFlags) Open() (Stores, error) {
	var s Stores
	var err error
	if f.CacheDir != "" || f.CacheMemMiB > 0 {
		mem := f.CacheMemMiB << 20
		if f.CacheMemMiB <= 0 {
			mem = -1 // disk-only
		}
		if s.Cache, err = cache.Open(cache.Options{Dir: f.CacheDir, MemBytes: mem}); err != nil {
			return Stores{}, fmt.Errorf("opening tile cache: %w", err)
		}
	}
	if f.WarmLib != "" {
		if s.WarmStart, err = warmstart.Open(warmstart.Options{Dir: f.WarmLib, Harvest: true}); err != nil {
			return Stores{}, fmt.Errorf("opening warm-start library: %w", err)
		}
	}
	if f.ArtifactDir != "" {
		if s.Artifact, err = artifact.Open(f.ArtifactDir); err != nil {
			return Stores{}, err
		}
	}
	return s, nil
}
