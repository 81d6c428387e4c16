package warmstart

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sync"

	"mosaic/internal/frame"
	"mosaic/internal/geom"
	"mosaic/internal/grid"
	"mosaic/internal/ilt"
	"mosaic/internal/lru"
	"mosaic/internal/obs"
	"mosaic/internal/sim"
)

// libVersion is folded into every family digest and entry frame. Bump it
// whenever the signature definition, distance inputs, or entry encoding
// change, so stale libraries miss instead of seeding from incompatible
// descriptors. 2: the family digest is the full ilt.Bits stream. 3: that
// stream lost the plateau tolerance (a seeded run's is ilt's constant).
const libVersion = 3

// Family partitions the library by everything that determines a
// converged mask's bits apart from the window geometry itself: imaging,
// resist, and optimizer configuration plus window size and pitch. A seed
// is only ever retrieved from its own family — a mask converged under a
// different process would be a nonsense starting point.
type Family [sha256.Size]byte

// String renders the family digest as lowercase hex.
func (f Family) String() string { return hex.EncodeToString(f[:]) }

// FamilyKey digests the same configuration stream cache.RequestKey does
// (ilt.Bits in canonical order), minus the geometry, the samples, and
// any warm-start seed already attached.
func FamilyKey(ws *sim.Simulator, windowPx int, pixelNM float64, cfg ilt.Config) Family {
	return frame.Digest(func(w *frame.Writer) {
		w.I64(libVersion)
		w.I64(int64(windowPx))
		w.F64(pixelNM)
		ilt.Bits{Optics: &ws.Cfg, Resist: &ws.Resist, Cfg: &cfg}.Append(w)
	})
}

// entryKey content-addresses one library entry: family plus the
// signature's canonical bits. The anchor offset is deliberately
// excluded, so translated repeats of one pattern dedup to a single
// stored mask.
func entryKey(fam Family, sig *Signature) string {
	k := frame.Digest(func(w *frame.Writer) {
		w.Raw(fam[:])
		w.Floats(sig.Desc[:])
		w.Put(&sig.AreaFrac, &sig.Polys, &sig.WFrac, &sig.HFrac)
	})
	return hex.EncodeToString(k[:])
}

// Options configures a Library.
type Options struct {
	// Dir is the library root. Created if absent; must be writable (the
	// probe at Open fails fast, so a daemon pointed at a read-only path
	// errors at startup instead of silently never harvesting).
	Dir string

	// MaxDist is the retrieval threshold on signature distance; 0 selects
	// DefaultMaxDist, a negative or non-finite one is rejected.
	MaxDist float64

	// Harvest enables writing converged masks back into the library.
	// A read-only consumer (e.g. a CI job against a golden library)
	// leaves it false.
	Harvest bool
}

// entry is the in-memory index record of one stored pattern; the mask
// itself stays on disk and is re-read on retrieval.
type entry struct {
	key        string
	fam        Family
	sig        Signature
	offX, offY int
	seq        int64 // harvest order; epoch guard for determinism
}

// Library is a durable, content-addressed store of (signature ->
// converged continuous mask) pairs with an in-memory signature index.
// Safe for concurrent use.
type Library struct {
	dir     string
	maxDist float64
	harvest bool

	mu    sync.Mutex
	seq   int64
	byFam map[Family][]*entry
	keys  map[string]bool

	// Recently prepared seeds: a window that repeats — every tile of a
	// resubmitted job — is handed the seed it was handed before instead of
	// a fresh read, decode and translation of the entry, and the digest its
	// bits were hashed to when it was made. A prepared seed is shared by
	// every run handed it and never written.
	seeds *lru.Cache[seedID, *prepared]

	// Recently computed signatures: Compute is a pure function of the
	// window geometry, window px and pitch, so a repeated window looks its
	// signature up by the digest of its geometry instead of rasterizing
	// it again. A memoised signature is shared and never written.
	sigs *lru.Cache[sigID, signed]
}

const (
	// seedMemoBytes bounds the prepared seeds a library keeps in memory.
	seedMemoBytes = 64 << 20
	// sigMemoBytes bounds the memoised signatures: about 2 000 windows.
	sigMemoBytes = 4 << 20
	// sigBytes is what one memoised signature is charged: the descriptor
	// and its four summary stats.
	sigBytes = 8 * (SignatureK*SignatureK + 4)
)

// seedID names one prepared seed: a stored mask in one window frame.
type seedID struct {
	entry  string
	dx, dy int
}

// prepared is one memoised seed and its frame.FieldDigest.
type prepared struct {
	seed   *grid.Field
	digest [sha256.Size]byte
}

// sigID names one signature: a window geometry (the frame.Digest of its
// Layout.AppendBits) at a window size and pitch.
type sigID struct {
	geom     [sha256.Size]byte
	windowPx int
	pixelNM  float64
}

// signed is one memoised Compute result.
type signed struct {
	sig        *Signature
	offX, offY int
}

var (
	mLookups   = obs.NewCounter("warmstart_lookups_total")
	mHits      = obs.NewCounter("warmstart_hits_total")
	mMisses    = obs.NewCounter("warmstart_misses_total")
	mHarvested = obs.NewCounter("warmstart_harvested_total")
	mFallbacks = obs.NewCounter("warmstart_fallbacks_total")
	mCorrupt   = obs.NewCounter("warmstart_corrupt_total")

	// Iteration histograms make the warm-start cut visible in /metrics:
	// compare the seeded distribution against the cold one.
	iterBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	mSeedIters = obs.NewHistogram("warmstart_seeded_iterations", iterBounds...)
	mColdIters = obs.NewHistogram("warmstart_cold_iterations", iterBounds...)
)

// Open opens (creating if needed) the library at opts.Dir and loads its
// signature index. Invalid options are reported as *ilt.ConfigError.
func Open(opts Options) (*Library, error) {
	if opts.Dir == "" {
		return nil, &ilt.ConfigError{Field: "WarmStart.Dir", Reason: "library directory must be non-empty"}
	}
	if !(opts.MaxDist >= 0) || math.IsInf(opts.MaxDist, 1) {
		return nil, &ilt.ConfigError{Field: "WarmStart.MaxDist", Reason: fmt.Sprintf("signature distance threshold must be finite and >= 0, got %g", opts.MaxDist)}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, &ilt.ConfigError{Field: "WarmStart.Dir", Reason: fmt.Sprintf("creating library dir: %v", err)}
	}
	// Writability probe: fail at startup, not at the first harvest.
	probe, err := os.CreateTemp(opts.Dir, ".probe-*")
	if err != nil {
		return nil, &ilt.ConfigError{Field: "WarmStart.Dir", Reason: fmt.Sprintf("library dir is not writable: %v", err)}
	}
	probe.Close()
	os.Remove(probe.Name())

	l := &Library{
		dir:     opts.Dir,
		maxDist: opts.MaxDist,
		harvest: opts.Harvest,
		byFam:   make(map[Family][]*entry),
		keys:    make(map[string]bool),
		seeds:   lru.New[seedID, *prepared](seedMemoBytes),
		sigs:    lru.New[sigID, signed](sigMemoBytes),
	}
	if l.maxDist == 0 {
		l.maxDist = DefaultMaxDist
	}
	l.load()
	return l, nil
}

// load walks the library directory and rebuilds the in-memory signature
// index. Entries that fail to decode — or whose content digest does not
// match their filename — are quarantined, exactly like the tile cache's
// disk tier. Scan order is deterministic (cas.Dir.Walk is sorted).
func (l *Library) load() {
	l.disk().Walk(func(key string) {
		e, _, err := l.readEntry(key)
		if err != nil {
			l.quarantine(key, err)
			return
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if !l.keys[e.key] {
			l.keys[e.key] = true
			l.seq++
			e.seq = l.seq
			l.byFam[e.fam] = append(l.byFam[e.fam], e)
		}
	})
}

// Epoch returns the library's current harvest sequence number. A run
// captures it once up front and retrieves only entries at or below it,
// so patterns harvested while the run is in flight cannot influence it —
// a run against an empty library stays bit-identical to a disabled one
// even though it harvests as it goes.
func (l *Library) Epoch() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// lookup returns the nearest in-threshold entry of fam with seq <= epoch.
func (l *Library) lookup(fam Family, sig *Signature, epoch int64) (*entry, float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var best *entry
	bestDist := math.Inf(1)
	for _, e := range l.byFam[fam] {
		if e.seq > epoch {
			continue
		}
		if d := sig.Distance(&e.sig); d < bestDist {
			best, bestDist = e, d
		}
	}
	if best == nil || bestDist > l.maxDist {
		return nil, 0, false
	}
	return best, bestDist, true
}

// drop quarantines an entry whose on-disk frame failed on retrieval and
// removes it from the index so it cannot match again.
func (l *Library) drop(e *entry, cause error) {
	l.quarantine(e.key, cause)
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.keys, e.key)
	live := l.byFam[e.fam][:0]
	for _, other := range l.byFam[e.fam] {
		if other != e {
			live = append(live, other)
		}
	}
	l.byFam[e.fam] = live
}

func (l *Library) quarantine(key string, cause error) {
	mCorrupt.Inc()
	obs.Logger().Warn("warmstart: quarantining corrupt entry", "key", key, "err", cause)
	l.disk().Quarantine(key)
}

// Attempt tracks one window's warm-start lifecycle from lookup to
// completion. Finish must be called with the window's result (seeded or
// not) so iteration histograms and the harvest see every window.
type Attempt struct {
	lib      *Library
	fam      Family
	sig      *Signature
	offX     int
	offY     int
	windowPx int
	pixelNM  float64

	// SeedKey is the content key of the library entry the window was
	// seeded from; empty when the lookup missed.
	SeedKey string
	// SeedDigest is the frame.FieldDigest of the seed attached behind
	// SeedKey, which the cache key takes instead of hashing the seed's
	// bits again; nil when the lookup missed.
	SeedDigest *[sha256.Size]byte
	// Dist is the signature distance of the match behind SeedKey.
	Dist float64
}

// Prepare consults the library for one window and returns the (possibly
// seeded) optimizer configuration plus the attempt to finish with the
// window's result. A nil library, empty window, or descriptor-sized
// mismatch returns cfg untouched and a nil attempt; so does a miss —
// only an actual hit modifies the config (it attaches the seed), keeping
// empty-library runs bit-identical to disabled ones. The scheduler never
// hands a runner an empty window; the guards stay because Prepare is
// exported.
//
// epoch is the value of Epoch() captured once per run; see Epoch.
func (l *Library) Prepare(epoch int64, cfg ilt.Config, ws *sim.Simulator, windowPx int, pixelNM float64, layout *geom.Layout) (ilt.Config, *Attempt) {
	if l == nil || ws == nil || layout == nil || len(layout.Polys) == 0 ||
		windowPx < SignatureK || windowPx%SignatureK != 0 || cfg.SeedMask != nil {
		return cfg, nil
	}
	fam := FamilyKey(ws, windowPx, pixelNM, cfg)
	sig, offX, offY := l.signature(layout, windowPx, pixelNM)
	att := &Attempt{lib: l, fam: fam, sig: sig, offX: offX, offY: offY, windowPx: windowPx, pixelNM: pixelNM}

	mLookups.Inc()

	e, dist, ok := l.lookup(fam, sig, epoch)
	if ok {
		seed, err := l.seedFor(e, offX-e.offX, offY-e.offY, windowPx)
		if err != nil {
			l.drop(e, err)
			ok = false
		} else {
			mHits.Inc()
			cfg.SeedMask = seed.seed
			att.SeedKey = e.key
			att.SeedDigest = &seed.digest
			att.Dist = dist
		}
	}
	if !ok {
		mMisses.Inc()
	}
	return cfg, att
}

// signature returns Compute's result for one window: memoised under the
// digest of the window's geometry, which is all Compute reads of it.
func (l *Library) signature(layout *geom.Layout, windowPx int, pixelNM float64) (*Signature, int, int) {
	id := sigID{geom: frame.Digest(layout.AppendBits), windowPx: windowPx, pixelNM: pixelNM}
	l.mu.Lock()
	s, ok := l.sigs.Get(id)
	l.mu.Unlock()
	if !ok {
		s.sig, s.offX, s.offY = Compute(layout, windowPx, pixelNM)
		l.mu.Lock()
		if first, ok := l.sigs.Get(id); ok { // a concurrent window signed it first
			s = first
		} else {
			l.sigs.Add(id, s, sigBytes)
		}
		l.mu.Unlock()
	}
	return s.sig, s.offX, s.offY
}

// seedFor returns entry e's stored mask translated by (dx, dy) into a
// windowPx frame, with its digest: the memoised seed when this library
// prepared it recently, otherwise read from disk, verified, translated,
// hashed and memoised.
func (l *Library) seedFor(e *entry, dx, dy, windowPx int) (*prepared, error) {
	id := seedID{entry: e.key, dx: dx, dy: dy}
	l.mu.Lock()
	p, ok := l.seeds.Get(id)
	l.mu.Unlock()
	if ok {
		return p, nil
	}

	_, mask, err := l.readEntry(e.key)
	if err != nil {
		return nil, err
	}
	if mask.W != windowPx {
		return nil, fmt.Errorf("entry mask is %d px, window wants %d px", mask.W, windowPx)
	}
	seed := Translate(mask, dx, dy)
	p = &prepared{seed: seed, digest: frame.FieldDigest(seed)}

	l.mu.Lock()
	defer l.mu.Unlock()
	if first, ok := l.seeds.Get(id); ok { // a concurrent window prepared it first
		return first, nil
	}
	l.seeds.Add(id, p, 8*int64(len(seed.Data))+sha256.Size)
	return p, nil
}

// Finish completes an attempt: it observes the seeded/cold iteration
// histograms, counts probe fallbacks, and harvests the window's
// converged continuous mask (content-addressed, so repeats dedup).
func (a *Attempt) Finish(res *ilt.Result) {
	if a == nil || res == nil {
		return
	}
	if a.SeedKey != "" && res.Seeded {
		mSeedIters.Observe(float64(res.Iterations))
	} else {
		if a.SeedKey != "" {
			// A retrieved seed probed worse than the rule-based init and
			// was rejected by the optimizer.
			mFallbacks.Inc()
		}
		mColdIters.Observe(float64(res.Iterations))
	}
	if res.MaskGray != nil && res.MaskGray.W == a.windowPx && res.MaskGray.H == a.windowPx {
		a.lib.harvestEntry(a.fam, a.sig, a.offX, a.offY, a.windowPx, a.pixelNM, res.MaskGray)
	}
}

// harvestEntry records one (signature -> mask) pair, deduping by content
// key. The index gains the entry immediately; the disk write is
// best-effort (a failed write costs a later miss, never an error).
func (l *Library) harvestEntry(fam Family, sig *Signature, offX, offY, windowPx int, pixelNM float64, mask *grid.Field) {
	if !l.harvest {
		return
	}
	key := entryKey(fam, sig)
	l.mu.Lock()
	if l.keys[key] {
		l.mu.Unlock()
		return
	}
	l.keys[key] = true
	l.seq++
	e := &entry{key: key, fam: fam, sig: *sig, offX: offX, offY: offY, seq: l.seq}
	l.byFam[fam] = append(l.byFam[fam], e)
	l.mu.Unlock()
	mHarvested.Inc()
	l.writeEntry(e, windowPx, pixelNM, mask)
}
