package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mosaic/internal/cas"
	"mosaic/internal/frame"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
	"mosaic/internal/tile"
)

// Leaf is one anchored tile result: the content address of its stored
// blob plus the attribution of where the bits came from. Attribution
// travels on the anchor record, not in the blob, because it must not
// affect the content digest — the same cell served from any cache tier
// or started from any seed anchors the same leaf.
type Leaf struct {
	// Index is the tile's plan (row-major) position; an untiled run
	// anchors one leaf at index 0.
	Index int `json:"index"`
	// Blob is the content address of the stored result payload — the
	// Merkle leaf digest.
	Blob Digest `json:"blob"`
	// Provenance is the tile's attribution as the scheduler recorded it
	// (key, tier, seed), flattened into the leaf's JSON; Key
	// cross-links the artifact to the cache entry that can reproduce it.
	tile.Provenance
}

// Record is one anchored job: its manifest digest, the Merkle root
// over manifest + leaves, and the leaves themselves. Records are
// immutable once committed; treat every Record the store hands out as
// read-only.
type Record struct {
	JobID     string    `json:"job_id"`
	Manifest  Digest    `json:"manifest"`
	Root      Digest    `json:"root"`
	Leaves    []Leaf    `json:"leaves"`
	CreatedAt time.Time `json:"created_at"`
}

// BlobRef locates one use of a blob: which job anchors it, and as
// which leaf (ManifestLeaf for the job manifest itself).
type BlobRef struct {
	JobID string `json:"job_id"`
	Leaf  int    `json:"leaf"`
}

// Store is the durable provenance store: content-addressed blobs under
// dir/blobs, an append-only MTAN anchor log, and an in-memory index
// rebuilt from the log on Open. Safe for concurrent use.
type Store struct {
	blobs   cas.Dir // dir/blobs/<2-hex>/<sha256>.blob, fsynced MTAB frames
	quality cas.Dir // dir/quality/<2-hex>/<key>.mtq, see quality.go

	// wmu serializes the anchor log: a commit writes and fsyncs its record
	// under it, and Close takes it to wait out a commit in flight.
	wmu    sync.Mutex
	log    anchorLog // anchors.log
	end    int64     // bytes of whole records in the log: where the next one goes
	broken error     // a failed append the log could not be cut back from
	closed bool

	// cmu guards corrupt: the blobs a verified read (Blob, Verify) found
	// damaged on disk. putBlob rewrites those instead of deduping against
	// the damage.
	cmu     sync.Mutex
	corrupt map[Digest]bool

	// imu guards the index maps.
	imu        sync.Mutex
	byManifest map[Digest][]*Record
	byRoot     map[Digest][]*Record
	byBlob     map[Digest][]BlobRef
}

// anchorLog is what the store needs of anchors.log: an *os.File, or in a
// test one that fails on cue.
type anchorLog interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// Open opens (creating if needed) a store rooted at dir and replays
// the anchor log into the index. Replay is torn-tail tolerant: a record
// half-written by a crash is truncated away and everything before it is
// kept — its blobs remain on disk and are re-anchored for free
// (deduplicated) when the job re-commits.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: store needs a directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("artifact: creating store dir: %w", err)
	}
	s := &Store{
		blobs:      cas.Dir{Root: filepath.Join(dir, "blobs"), Ext: ".blob", Magic: blobMagic, Sync: true},
		quality:    cas.Dir{Root: filepath.Join(dir, "quality"), Ext: ".mtq", Magic: qualityMagic},
		byManifest: make(map[Digest][]*Record),
		byRoot:     make(map[Digest][]*Record),
		byBlob:     make(map[Digest][]BlobRef),
		corrupt:    make(map[Digest]bool),
	}
	f, err := os.OpenFile(filepath.Join(dir, "anchors.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("artifact: opening anchor log: %w", err)
	}
	if err := s.replay(f); err != nil {
		f.Close()
		return nil, err
	}
	s.log = f
	return s, nil
}

// replay rebuilds the index from the anchor log, stopping at the first
// defective frame (a torn tail) and truncating the file there so later
// appends extend a clean log.
func (s *Store) replay(f *os.File) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("artifact: reading anchor log: %w", err)
	}
	off, defect := frame.Scan(anchorMagic, data, func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		s.index(&rec)
		return nil
	})
	if defect != nil {
		obs.Logger().Warn("artifact: truncating torn anchor-log tail",
			"valid_bytes", off, "dropped_bytes", len(data)-off, "err", defect)
		if err := f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("artifact: truncating torn anchor log: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		return fmt.Errorf("artifact: seeking anchor log: %w", err)
	}
	s.end = int64(off)
	return nil
}

// index adds a record to the lookup maps; the caller holds imu (or is
// the single-threaded replay).
func (s *Store) index(rec *Record) {
	s.byManifest[rec.Manifest] = append(s.byManifest[rec.Manifest], rec)
	s.byRoot[rec.Root] = append(s.byRoot[rec.Root], rec)
	s.byBlob[rec.Manifest] = append(s.byBlob[rec.Manifest], BlobRef{JobID: rec.JobID, Leaf: ManifestLeaf})
	for _, l := range rec.Leaves {
		s.byBlob[l.Blob] = append(s.byBlob[l.Blob], BlobRef{JobID: rec.JobID, Leaf: l.Index})
	}
}

// PutBlob writes payload as a content-addressed MTAB blob and returns
// its digest. Blobs are immutable and deduplicated — a payload already
// stored (the same cell anchored by another job) costs a stat, not a
// write. Writes are synced and atomically renamed into place, so
// readers only ever see whole frames.
func (s *Store) PutBlob(payload []byte) (Digest, error) {
	d := HashBlob(payload)
	return d, s.putBlob(d, payload)
}

// putBlob is PutBlob for a payload whose digest d the caller holds. A
// blob a verified read found damaged is rewritten (temp file + rename)
// rather than deduped against.
func (s *Store) putBlob(d Digest, payload []byte) error {
	if s.stored(d) {
		mBlobsDeduped.Inc()
		return nil
	}
	if err := s.blobs.Write(d.String(), frame.Encode(blobMagic, payload)); err != nil {
		return fmt.Errorf("artifact: writing blob %s: %w", d, err)
	}
	s.cmu.Lock()
	delete(s.corrupt, d)
	s.cmu.Unlock()
	mBlobsWritten.Inc()
	mBlobBytes.Add(int64(len(payload)))
	return nil
}

// stored reports whether blob d is on disk and not known to be damaged:
// one stat, and a map lookup.
func (s *Store) stored(d Digest) bool {
	s.cmu.Lock()
	damaged := s.corrupt[d]
	s.cmu.Unlock()
	return !damaged && s.blobs.Has(d.String())
}

// noteCorrupt records that a verified read found blob d damaged.
func (s *Store) noteCorrupt(d Digest) {
	s.cmu.Lock()
	s.corrupt[d] = true
	s.cmu.Unlock()
}

// PutResult stores a tile result as the blob of its EncodeResult payload
// and returns its leaf digest. The digest is memoised on the result, so a
// result the tile cache serves to job after job is encoded and hashed once,
// for the first of them; the rest pay the dedup stat.
func (s *Store) PutResult(res *ilt.Result) (Digest, error) {
	var payload []byte
	d, err := res.LeafDigest(func(r *ilt.Result) (d [32]byte, err error) {
		if payload, err = EncodeResult(r); err == nil {
			d = HashBlob(payload)
		}
		return d, err
	})
	if err != nil {
		return d, err
	}
	if payload == nil { // digest memoised by an earlier job
		if s.stored(d) {
			mBlobsDeduped.Inc()
			return d, nil
		}
		if payload, err = EncodeResult(res); err != nil {
			return d, err
		}
	}
	return d, s.putBlob(d, payload)
}

// Blob returns the stored payload behind a digest, proving it on the
// way out: the frame must parse, the CRC must hold, and the payload
// must hash back to the requested digest. A Blob result is verified,
// never trusted.
func (s *Store) Blob(d Digest) ([]byte, error) {
	payload, err := s.rawBlob(d)
	if err != nil {
		return nil, err
	}
	if HashBlob(payload) != d {
		s.noteCorrupt(d)
		return nil, fmt.Errorf("%w: blob %s content does not hash to its address", ErrCorrupt, d)
	}
	return payload, nil
}

// rawBlob reads and unframes a blob file without checking the content
// address — Verify re-derives digests itself from these bytes. A blob
// that does not unframe is noted as damaged.
func (s *Store) rawBlob(d Digest) ([]byte, error) {
	payload, err := s.blobs.Get(d.String())
	switch {
	case errors.Is(err, cas.ErrNotFound):
		return nil, fmt.Errorf("%w: blob %s", ErrNotFound, d)
	case errors.Is(err, cas.ErrCorrupt):
		s.noteCorrupt(d)
		return nil, fmt.Errorf("%w: blob %s: %v", ErrCorrupt, d, err)
	case err != nil:
		return nil, fmt.Errorf("artifact: reading blob %s: %w", d, err)
	}
	return payload, nil
}

// Commit anchors one completed job: the manifest payload is stored as
// its own blob, the Merkle root is computed over the leaf digests and
// bound to the manifest digest, and the record is appended to the
// anchor log. The record is durable when Commit returns: each record is
// one write and one fsync.
func (s *Store) Commit(jobID string, manifest []byte, leaves []Leaf) (*Record, error) {
	if jobID == "" {
		return nil, fmt.Errorf("artifact: commit needs a job id")
	}
	if len(leaves) == 0 {
		return nil, fmt.Errorf("artifact: commit needs at least one leaf")
	}
	md, err := s.PutBlob(manifest)
	if err != nil {
		return nil, err
	}
	ls := make([]Leaf, len(leaves))
	copy(ls, leaves)
	sort.SliceStable(ls, func(a, b int) bool { return ls[a].Index < ls[b].Index })
	ld := make([]Digest, len(ls))
	for i, l := range ls {
		if l.Blob.IsZero() {
			return nil, fmt.Errorf("artifact: leaf %d has no blob digest", l.Index)
		}
		ld[i] = l.Blob
	}
	rec := &Record{
		JobID:     jobID,
		Manifest:  md,
		Root:      AnchorRoot(md, MerkleRoot(ld)),
		Leaves:    ls,
		CreatedAt: time.Now().UTC(),
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("artifact: encoding anchor record: %w", err)
	}
	if err := s.appendAnchor(frame.Encode(anchorMagic, payload)); err != nil {
		return nil, err
	}
	s.imu.Lock()
	s.index(rec)
	s.imu.Unlock()
	mRecords.Inc()
	return rec, nil
}

// appendAnchor appends one framed record to the anchor log and returns
// once it is fsynced. A failed write or fsync cuts the log back to where
// the record began, so no partial frame is left for a later record to
// land behind (replay would truncate that record away with the torn
// bytes); if the log cannot be cut back, every later commit is refused.
func (s *Store) appendAnchor(fr []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken != nil {
		return fmt.Errorf("artifact: anchor log unusable since a failed append: %w", s.broken)
	}
	_, err := s.log.Write(fr)
	if err != nil {
		err = fmt.Errorf("artifact: appending anchor: %w", err)
	} else if err = s.log.Sync(); err != nil {
		err = fmt.Errorf("artifact: syncing anchor log: %w", err)
	}
	if err != nil {
		if terr := s.log.Truncate(s.end); terr != nil {
			s.broken = terr
		} else if _, serr := s.log.Seek(s.end, io.SeekStart); serr != nil {
			s.broken = serr
		}
		return err
	}
	s.end += int64(len(fr))
	return nil
}

// Close waits for a commit in flight and closes the anchor log. Commits
// arriving after Close fail with ErrClosed.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}

// ByBlob returns every (job, leaf) anchoring a blob digest, in commit
// order — which jobs a stored tile result participates in.
func (s *Store) ByBlob(d Digest) []BlobRef {
	s.imu.Lock()
	defer s.imu.Unlock()
	return append([]BlobRef(nil), s.byBlob[d]...)
}

// Resolve finds the anchored record a digest names: a Merkle root
// first, then a manifest digest (the two cannot collide short of
// SHA-256 breaking). The latest record wins when several share the
// digest — a re-run job anchors a new record with the same root.
func (s *Store) Resolve(d Digest) (*Record, bool) {
	s.imu.Lock()
	defer s.imu.Unlock()
	if recs := s.byRoot[d]; len(recs) > 0 {
		return recs[len(recs)-1], true
	}
	if recs := s.byManifest[d]; len(recs) > 0 {
		return recs[len(recs)-1], true
	}
	return nil, false
}
