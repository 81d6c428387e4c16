package cache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/tile"
)

// fakeResult builds a small deterministic result; seed varies the bits so
// tests can tell entries apart.
func fakeResult(w int, seed float64) *ilt.Result {
	g := grid.New(w, w)
	for i := range g.Data {
		g.Data[i] = seed + float64(i)/float64(len(g.Data))
	}
	return &ilt.Result{MaskGray: g, Mask: g.Threshold(0.5), Objective: seed, Iterations: 7, RuntimeSec: 0.25}
}

func testKey(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameBits fails the test unless a and b are bit-identical results.
func sameBits(t *testing.T, a, b *ilt.Result) {
	t.Helper()
	if a.Objective != b.Objective || a.Iterations != b.Iterations || a.RuntimeSec != b.RuntimeSec {
		t.Fatalf("result scalars differ: %+v vs %+v", a, b)
	}
	for i := range a.MaskGray.Data {
		if a.MaskGray.Data[i] != b.MaskGray.Data[i] {
			t.Fatalf("MaskGray differs at pixel %d", i)
		}
	}
	for i := range a.Mask.Data {
		if a.Mask.Data[i] != b.Mask.Data[i] {
			t.Fatalf("Mask differs at pixel %d", i)
		}
	}
}

func TestStoreMemTier(t *testing.T) {
	s := mustOpen(t, Options{})
	want := fakeResult(8, 1)
	calls := 0
	compute := func() (*ilt.Result, error) { calls++; return want, nil }

	got, tier, err := s.GetOrCompute(context.Background(), testKey(1), compute)
	if err != nil || got != want || tier != tile.TierMiss {
		t.Fatalf("cold lookup: res=%p tier=%q err=%v, want computed %p", got, tier, err, want)
	}
	got, tier, err = s.GetOrCompute(context.Background(), testKey(1), compute)
	if err != nil || got != want || tier != tile.TierMem {
		t.Fatalf("warm lookup: res=%p tier=%q err=%v", got, tier, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestSingleflight pins the concurrency contract: N racing lookups of one
// absent key run the optimizer exactly once; everyone else waits on the
// flight and shares the leader's result.
func TestSingleflight(t *testing.T) {
	s := mustOpen(t, Options{})
	const n = 8
	var computes atomic.Int64
	release := make(chan struct{})
	want := fakeResult(8, 2)
	compute := func() (*ilt.Result, error) {
		computes.Add(1)
		<-release // hold the flight open until every goroutine has launched
		return want, nil
	}

	var wg sync.WaitGroup
	tiers := make([]string, n)
	results := make([]*ilt.Result, n)
	var started sync.WaitGroup
	started.Add(n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			res, tier, err := s.GetOrCompute(context.Background(), testKey(3), compute)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i], tiers[i] = res, tier
		}(i)
	}
	started.Wait()
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times under %d concurrent lookups, want 1", got, n)
	}
	misses := 0
	for i := range results {
		if results[i] != want {
			t.Fatalf("goroutine %d got a different result", i)
		}
		switch tiers[i] {
		case tile.TierMiss:
			misses++
		case tile.TierFlight, tile.TierMem:
		default:
			t.Fatalf("goroutine %d served from tier %q", i, tiers[i])
		}
	}
	if misses != 1 {
		t.Fatalf("%d goroutines report tile.TierMiss, want exactly the leader", misses)
	}
}

// TestSingleflightLeaderErrorNotCached checks both halves of the error
// contract: a failed computation leaves no entry behind, and a waiter that
// observed the leader's failure retries instead of inheriting an error
// that may have been the leader's own cancellation.
func TestSingleflightLeaderErrorNotCached(t *testing.T) {
	s := mustOpen(t, Options{})
	boom := errors.New("transient optimizer failure")
	var computes atomic.Int64
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	want := fakeResult(8, 3)
	compute := func() (*ilt.Result, error) {
		if computes.Add(1) == 1 {
			close(leaderIn)
			<-release
			return nil, boom
		}
		return want, nil
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), testKey(4), compute)
		leaderErr <- err
	}()
	<-leaderIn

	waiterDone := make(chan struct{})
	var waiterRes *ilt.Result
	var waiterTier string
	go func() {
		defer close(waiterDone)
		var err error
		waiterRes, waiterTier, err = s.GetOrCompute(context.Background(), testKey(4), compute)
		if err != nil {
			t.Errorf("waiter inherited the leader's error: %v", err)
		}
	}()
	close(release)

	if err := <-leaderErr; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	<-waiterDone
	if waiterRes != want || waiterTier != tile.TierMiss {
		t.Fatalf("waiter res=%p tier=%q, want to recompute %p itself", waiterRes, waiterTier, want)
	}
}

// TestPanickingLeaderReleasesFlight: a compute that panics (the tile
// scheduler recovers it as that tile's error) must not leave its key
// wedged. A waiter that was parked on the flight, and a later lookup,
// both compute for themselves; at the parent both blocked until their
// context ended.
func TestPanickingLeaderReleasesFlight(t *testing.T) {
	s := mustOpen(t, Options{})
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		s.GetOrCompute(context.Background(), testKey(10), func() (*ilt.Result, error) {
			close(leaderIn)
			<-release
			panic("optimizer bug")
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want := fakeResult(8, 5)
	waiter := make(chan error, 1)
	go func() {
		res, tier, err := s.GetOrCompute(ctx, testKey(10), func() (*ilt.Result, error) { return want, nil })
		if err == nil && (res != want || tier != tile.TierMiss) {
			err = fmt.Errorf("res=%p tier=%q, want to recompute %p itself", res, tier, want)
		}
		waiter <- err
	}()
	close(release)
	if r := <-leaderDone; r != "optimizer bug" {
		t.Fatalf("leader recovered %v, want its own panic re-raised", r)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter on a panicked flight: %v", err)
	}
	if _, tier, err := s.GetOrCompute(ctx, testKey(10), nil); err != nil || tier != tile.TierMem {
		t.Fatalf("lookup after the panicked flight: tier=%q err=%v, want a memory hit", tier, err)
	}
}

// TestSingleflightWaiterCancellation: a waiter whose own context dies
// while the flight is open gets its ctx error, not a hang.
func TestSingleflightWaiterCancellation(t *testing.T) {
	s := mustOpen(t, Options{})
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	compute := func() (*ilt.Result, error) {
		close(leaderIn)
		<-release
		return fakeResult(8, 4), nil
	}
	go s.GetOrCompute(context.Background(), testKey(5), compute)
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.GetOrCompute(ctx, testKey(5), func() (*ilt.Result, error) {
		t.Error("canceled waiter ran a compute")
		return nil, nil
	})
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", err)
	}
}

// TestStoreLRUEviction: an evicted key comes back a miss, a resident one a
// memory hit (internal/lru's own tests hold the byte budget).
func TestStoreLRUEviction(t *testing.T) {
	one := fakeResult(8, 1)
	per := resultBytes(one)
	s := mustOpen(t, Options{MemBytes: 2 * per}) // room for exactly two entries
	bg := context.Background()
	val := func(seed float64) func() (*ilt.Result, error) {
		return func() (*ilt.Result, error) { return fakeResult(8, seed), nil }
	}

	s.GetOrCompute(bg, testKey(1), val(1))
	s.GetOrCompute(bg, testKey(2), val(2))
	s.GetOrCompute(bg, testKey(1), val(1)) // touch 1: key 2 becomes the LRU tail
	s.GetOrCompute(bg, testKey(3), val(3)) // evicts key 2

	if _, tier, _ := s.GetOrCompute(bg, testKey(1), val(1)); tier != tile.TierMem {
		t.Fatalf("recently used key evicted (tier %q)", tier)
	}
	if _, tier, _ := s.GetOrCompute(bg, testKey(2), val(2)); tier != tile.TierMiss {
		t.Fatalf("LRU victim still resident (tier %q)", tier)
	}
	// Re-adding key 2 evicted key 3, the tail after key 1's touch.

	// An entry larger than the whole budget must pass through uncached
	// without evicting the residents.
	if _, tier, _ := s.GetOrCompute(bg, testKey(9), func() (*ilt.Result, error) { return fakeResult(64, 9), nil }); tier != tile.TierMiss {
		t.Fatalf("oversized entry tier %q", tier)
	}
	for _, k := range []byte{1, 2} {
		if _, tier, _ := s.GetOrCompute(bg, testKey(k), val(float64(k))); tier != tile.TierMem {
			t.Fatalf("oversized entry evicted key %d (tier %q)", k, tier)
		}
	}
}

func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := fakeResult(16, 5)
	s1 := mustOpen(t, Options{Dir: dir})
	if _, tier, err := s1.GetOrCompute(context.Background(), testKey(6), func() (*ilt.Result, error) { return want, nil }); err != nil || tier != tile.TierMiss {
		t.Fatalf("seed lookup tier=%q err=%v", tier, err)
	}

	// A fresh store over the same directory: the entry must come off disk,
	// bit-identical, without running the compute.
	s2 := mustOpen(t, Options{Dir: dir})
	got, tier, err := s2.GetOrCompute(context.Background(), testKey(6), func() (*ilt.Result, error) {
		return nil, errors.New("disk hit must not recompute")
	})
	if err != nil || tier != tile.TierDisk {
		t.Fatalf("disk lookup tier=%q err=%v", tier, err)
	}
	sameBits(t, want, got)
	// The disk hit promoted the entry: the next lookup is a memory hit.
	if _, tier, _ := s2.GetOrCompute(context.Background(), testKey(6), nil); tier != tile.TierMem {
		t.Fatalf("promoted entry tier=%q, want %q", tier, tile.TierMem)
	}
}

// TestStoreDiskOnly: a negative memory budget disables the memory tier;
// every warm lookup decodes from disk and nothing stays resident.
func TestStoreDiskOnly(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MemBytes: -1})
	want := fakeResult(16, 6)
	s.GetOrCompute(context.Background(), testKey(7), func() (*ilt.Result, error) { return want, nil })
	for i := 0; i < 2; i++ {
		got, tier, err := s.GetOrCompute(context.Background(), testKey(7), nil)
		if err != nil || tier != tile.TierDisk {
			t.Fatalf("lookup %d: tier=%q err=%v", i, tier, err)
		}
		sameBits(t, want, got)
	}
}

// entryFile returns the single .mtc entry under dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.mtc"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one cache entry under %s, got %v (%v)", dir, matches, err)
	}
	return matches[0]
}

// TestStoreCorruptEntryRecovery is the quarantine contract: every flavor
// of on-disk damage is detected, moved aside, recomputed, and re-persisted
// — never an error to the caller.
func TestStoreCorruptEntryRecovery(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"flipped-payload-byte": func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"truncated":            func(b []byte) []byte { return b[:len(b)/2] },
		"bad-magic":            func(b []byte) []byte { b[0] ^= 0xff; return b },
		"short-file":           func(b []byte) []byte { return b[:5] },
		"bad-length":           func(b []byte) []byte { b[4] ^= 0x01; return b },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := fakeResult(16, 7)
			mustOpen(t, Options{Dir: dir}).GetOrCompute(context.Background(), testKey(8),
				func() (*ilt.Result, error) { return want, nil })

			path := entryFile(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s := mustOpen(t, Options{Dir: dir})
			corrupt0 := mCorrupt.Value()
			var recomputed bool
			got, tier, err := s.GetOrCompute(context.Background(), testKey(8), func() (*ilt.Result, error) {
				recomputed = true
				return want, nil
			})
			if err != nil {
				t.Fatalf("corrupt entry surfaced as an error: %v", err)
			}
			if !recomputed || tier != tile.TierMiss {
				t.Fatalf("corrupt entry served as a hit (tier %q)", tier)
			}
			sameBits(t, want, got)
			if n := mCorrupt.Value() - corrupt0; n != 1 {
				t.Fatalf("cache_corrupt_total rose by %d, want 1", n)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("damaged entry not quarantined: %v", err)
			}

			// The recompute re-persisted a clean entry: a third store serves
			// it from disk again.
			got3, tier, err := mustOpen(t, Options{Dir: dir}).GetOrCompute(context.Background(), testKey(8), nil)
			if err != nil || tier != tile.TierDisk {
				t.Fatalf("re-persisted entry tier=%q err=%v", tier, err)
			}
			sameBits(t, want, got3)
		})
	}
}

// TestStoreEntrySharding pins the on-disk layout: entries land in a
// two-hex-digit shard directory named by the digest prefix.
func TestStoreEntrySharding(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	key := testKey(0xAB)
	s.GetOrCompute(context.Background(), key, func() (*ilt.Result, error) { return fakeResult(8, 8), nil })
	want := filepath.Join(dir, "ab", key.String()+".mtc")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("entry not at %s: %v", want, err)
	}
}
