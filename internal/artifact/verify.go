package artifact

// ManifestLeaf is the pseudo leaf index identifying the job-manifest
// blob in failure reports and blob back-references (real tile leaves
// are >= 0).
const ManifestLeaf = -1

// LeafFailure identifies one blob that failed verification and why.
type LeafFailure struct {
	// Index is the failing tile's plan index, or ManifestLeaf when the
	// manifest blob itself (or the anchored root) is at fault.
	Index int `json:"index"`
	// Blob is the digest the anchor record expected at this leaf.
	Blob Digest `json:"blob"`
	// Reason says what broke: missing file, frame/CRC damage, content
	// hash mismatch, or root mismatch.
	Reason string `json:"reason"`
}

// VerifyReport is the outcome of re-proving one anchored record from
// stored bytes.
type VerifyReport struct {
	JobID    string `json:"job_id,omitempty"`
	Root     Digest `json:"root"`
	Manifest Digest `json:"manifest"`
	Leaves   int    `json:"leaves"`
	OK       bool   `json:"ok"`
	// RootRecomputed is the anchor root re-derived from the bytes on
	// disk; it equals Root exactly when every blob still proves out.
	// Zero when a read failure prevented recomputation.
	RootRecomputed Digest        `json:"root_recomputed"`
	Failures       []LeafFailure `json:"failures,omitempty"`
}

// Verify re-proves a stored artifact from leaf bytes to anchored root.
// It re-reads every blob the record references, re-derives each digest
// from the raw payload bytes (trusting nothing cached), rebuilds the
// Merkle tree, and compares the recomputed anchor root against the one
// committed in the anchor log. Any single flipped bit in any stored
// payload surfaces as a failure naming the offending leaf.
func (s *Store) Verify(rec *Record) *VerifyReport {
	mVerifies.Inc()
	rep := &VerifyReport{
		JobID:    rec.JobID,
		Root:     rec.Root,
		Manifest: rec.Manifest,
		Leaves:   len(rec.Leaves),
	}
	readable := true
	fail := func(index int, blob Digest, reason string) {
		rep.Failures = append(rep.Failures, LeafFailure{Index: index, Blob: blob, Reason: reason})
	}
	check := func(index int, want Digest) Digest {
		payload, err := s.rawBlob(want)
		if err != nil {
			fail(index, want, err.Error())
			readable = false
			return Digest{}
		}
		got := HashBlob(payload)
		if got != want {
			s.noteCorrupt(want)
			fail(index, want, "content does not hash to the anchored digest")
		}
		return got
	}
	md := check(ManifestLeaf, rec.Manifest)
	derived := make([]Digest, len(rec.Leaves))
	for i, l := range rec.Leaves {
		derived[i] = check(l.Index, l.Blob)
	}
	if readable {
		rep.RootRecomputed = AnchorRoot(md, MerkleRoot(derived))
		if rep.RootRecomputed != rec.Root && len(rep.Failures) == 0 {
			fail(ManifestLeaf, rec.Root, "recomputed root does not match the anchored root")
		}
	}
	rep.OK = len(rep.Failures) == 0
	if !rep.OK {
		mVerifyFailed.Inc()
	}
	return rep
}

// VerifyBlob proves a single blob in isolation: the file exists, the
// frame parses, the CRC holds, and the payload hashes back to its
// address. Returns nil when the blob is intact.
func (s *Store) VerifyBlob(d Digest) error {
	mVerifies.Inc()
	if _, err := s.Blob(d); err != nil {
		mVerifyFailed.Inc()
		return err
	}
	return nil
}
