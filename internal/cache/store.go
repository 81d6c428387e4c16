package cache

import (
	"context"
	"sync"

	"mosaic/internal/ilt"
	"mosaic/internal/lru"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// Cache metrics: lookups served from the store (any tier), lookups that
// ran the optimizer, memory-tier evictions, disk entries quarantined as
// corrupt, and the memory tier's current footprint.
var (
	mHits      = obs.NewCounter("cache_hits_total")
	mMisses    = obs.NewCounter("cache_misses_total")
	mEvictions = obs.NewCounter("cache_evictions_total")
	mCorrupt   = obs.NewCounter("cache_corrupt_total")
	mBytes     = obs.NewGauge("cache_bytes_total")
	mEntries   = obs.NewGauge("cache_entries_total")
)

// DefaultMemBytes is the memory-tier budget when Options.MemBytes is 0.
const DefaultMemBytes = 256 << 20

// Options configures a Store.
type Options struct {
	// Dir is the durable tier's directory, created if absent; "" keeps the
	// store memory-only.
	Dir string
	// MemBytes is the memory tier's byte budget. 0 selects
	// DefaultMemBytes; negative disables the memory tier (disk-only).
	MemBytes int64
}

// Store is a two-tier content-addressed tile-result store. All methods
// are safe for concurrent use; a Store is meant to be shared across
// every job of a process.
type Store struct {
	dir string

	mu      sync.Mutex
	mem     *lru.Cache[Key, *ilt.Result] // the memory tier
	flights map[Key]*flight
}

// flight is one in-progress computation; concurrent requests for the
// same key wait on it instead of duplicating the work.
type flight struct {
	done chan struct{}
	res  *ilt.Result // nil when the leader failed
}

// Open creates a store. With a non-empty Dir the directory is created;
// failure to create it is the only hard error a store ever returns —
// everything at lookup time degrades to a recompute.
func Open(opts Options) (*Store, error) {
	budget := opts.MemBytes
	switch {
	case budget == 0:
		budget = DefaultMemBytes
	case budget < 0:
		budget = 0
	}
	s := &Store{
		dir:     opts.Dir,
		mem:     lru.New[Key, *ilt.Result](budget),
		flights: make(map[Key]*flight),
	}
	if err := s.initDir(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the durable tier's directory; "" for a memory-only store,
// whose entries end with the process.
func (s *Store) Dir() string { return s.dir }

// GetOrCompute returns the result for key, running compute at most once
// across concurrent callers when the store has no entry. The returned
// tier says how the call was served (tile.TierMem/TierDisk/TierFlight on
// a hit, tile.TierMiss when compute ran). Compute errors are never
// cached: the leader's error is reported to it, and waiters retry the
// lookup themselves (so one canceled job cannot poison another job
// waiting on the same key). ctx bounds only this caller's wait.
func (s *Store) GetOrCompute(ctx context.Context, key Key, compute func() (*ilt.Result, error)) (*ilt.Result, string, error) {
	for {
		s.mu.Lock()
		if res, ok := s.mem.Get(key); ok {
			s.mu.Unlock()
			mHits.Inc()
			return res, tile.TierMem, nil
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
			if f.res == nil {
				// The leader failed — with an error that may be its own
				// cancellation, or a panic. Loop and try again (likely
				// becoming the leader); our own cancellation exits above.
				continue
			}
			mHits.Inc()
			return f.res, tile.TierFlight, nil
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()
		// Released in a defer: a compute that panics must not leave the
		// key wedged for every later job.
		defer func() {
			s.mu.Lock()
			delete(s.flights, key)
			s.mu.Unlock()
			close(f.done)
		}()

		res, tier, err := s.lead(key, compute)
		f.res = res
		return res, tier, err
	}
}

// lead is the flight leader's path: probe the disk tier, then compute
// and persist. Exactly one goroutine runs it per in-flight key.
func (s *Store) lead(key Key, compute func() (*ilt.Result, error)) (*ilt.Result, string, error) {
	if res, ok := s.diskHit(key); ok {
		return res, tile.TierDisk, nil
	}
	res, err := compute()
	if err != nil {
		return nil, "", err
	}
	s.Put(key, res)
	mMisses.Inc()
	return res, tile.TierMiss, nil
}

// Lookup returns key's stored result, trying the memory tier and then the
// disk tier, and never computes or persists one. A hit counts under
// cache_hits_total and a disk hit is promoted to memory, as in
// GetOrCompute; a miss counts nothing, because the caller goes on to a
// GetOrCompute of its own, which counts that window once.
func (s *Store) Lookup(key Key) (*ilt.Result, string, bool) {
	s.mu.Lock()
	res, ok := s.mem.Get(key)
	s.mu.Unlock()
	if ok {
		mHits.Inc()
		return res, tile.TierMem, true
	}
	if res, ok := s.diskHit(key); ok {
		return res, tile.TierDisk, true
	}
	return nil, "", false
}

// diskHit serves key from the disk tier, promoting the entry to memory.
func (s *Store) diskHit(key Key) (*ilt.Result, bool) {
	res, ok := s.diskGet(key)
	if ok {
		s.memAdd(key, res)
		mHits.Inc()
	}
	return res, ok
}

// Put stores a result under key in both tiers. Results entering the
// cache are shared across future lookups, so callers must treat them as
// immutable from here on (the scheduler and stitcher already do).
func (s *Store) Put(key Key, res *ilt.Result) {
	if res == nil || res.MaskGray == nil {
		return
	}
	s.memAdd(key, res)
	s.diskPut(key, res)
}

// resultBytes estimates a result's memory-tier footprint: the two mask
// rasters dominate.
func resultBytes(res *ilt.Result) int64 {
	n := int64(128) // struct + bookkeeping overhead
	if res.MaskGray != nil {
		n += 8 * int64(len(res.MaskGray.Data))
	}
	if res.Mask != nil {
		n += 8 * int64(len(res.Mask.Data))
	}
	return n
}

// memAdd inserts a result into the memory tier, evicting from the LRU
// tail to stay within budget. Results larger than the whole budget are
// simply not kept resident.
func (s *Store) memAdd(key Key, res *ilt.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	added, evicted := s.mem.Add(key, res, resultBytes(res))
	if !added {
		return
	}
	mEvictions.Add(int64(evicted))
	mEntries.Set(float64(s.mem.Len()))
	mBytes.Set(float64(s.mem.Bytes()))
}
