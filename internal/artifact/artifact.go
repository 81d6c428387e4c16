// Package artifact is the durable provenance store behind every served
// mask: the "triangle" of an object store (content-addressed blobs), a
// hash anchor (a Merkle tree over the tile-result digests, bound to the
// canonical job manifest), and an index (job ID, manifest digest,
// Merkle root, or blob digest -> anchored record).
//
// A completed optimization run commits as:
//
//   - one MTAB blob per tile result, named by the SHA-256 of its
//     payload (the Merkle leaves);
//   - one MTAB blob holding the job manifest — the canonical JSON
//     record of every input that determined the bits (layout geometry,
//     imaging/resist/optimizer configuration, tiling, digest
//     generation, build);
//   - one MTAN record appended to the anchor log: job ID, manifest
//     digest, Merkle root, and the per-leaf attribution (which cache
//     tier served it, which seed it started from).
//
// Commit is durable when it returns: one fsync a record. Verify
// re-proves a stored artifact from raw bytes to the anchored root, so
// a single flipped bit anywhere in a stored result is detected and
// attributed to its leaf. Because blob payloads exclude runtimes and
// the manifest excludes IDs and timestamps, a cold run and a cached warm
// run of the same work anchor the same digests.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"mosaic/internal/obs"
)

// Store-level errors.
var (
	// ErrNotFound reports a digest or job the store holds no data for.
	ErrNotFound = errors.New("artifact: not found")
	// ErrCorrupt reports a stored blob whose bytes no longer prove its
	// content address (bad magic, short file, CRC mismatch, hash
	// mismatch).
	ErrCorrupt = errors.New("artifact: blob is corrupt")
	// ErrClosed reports a commit against a closed store.
	ErrClosed = errors.New("artifact: store is closed")
)

// Store metrics: blob traffic, anchored records, and verification
// outcomes.
var (
	mBlobsWritten = obs.NewCounter("artifact_blobs_written_total")
	mBlobsDeduped = obs.NewCounter("artifact_blobs_deduped_total")
	mBlobBytes    = obs.NewCounter("artifact_blob_bytes_total")
	mRecords      = obs.NewCounter("artifact_records_total")
	mVerifies     = obs.NewCounter("artifact_verify_total")
	mVerifyFailed = obs.NewCounter("artifact_verify_failed_total")
)

// Digest is a SHA-256 content address: of a stored blob's payload, of
// the canonical manifest, or of a Merkle node derived from them.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex (the wire and on-disk
// form).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d == Digest{} }

// MarshalText encodes the digest as hex, so records JSON-marshal to
// readable digests.
func (d Digest) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText parses a hex digest.
func (d *Digest) UnmarshalText(b []byte) error {
	p, err := ParseDigest(string(b))
	if err != nil {
		return err
	}
	*d = p
	return nil
}

// ParseDigest parses a lowercase-hex SHA-256 digest.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != sha256.Size {
		return d, fmt.Errorf("artifact: %q is not a sha-256 hex digest", s)
	}
	copy(d[:], b)
	return d, nil
}

// HashBlob is the content address of a payload: a plain SHA-256 over
// its bytes, so anyone holding the bytes can re-derive the leaf.
func HashBlob(payload []byte) Digest { return sha256.Sum256(payload) }
