// Package cas is the one sharded directory of single-frame files behind
// the tile-cache disk tier, the warm-start library and the artifact blob
// store: <root>/<key[:2]>/<key><ext>, one frame per file, written by
// temp file + rename so readers only ever see whole entries and a
// crashed writer leaves only an ignorable temp file. The package owns
// the mechanics; what a defect costs (quarantine and recompute, or leave
// in place and report) and how far a read is verified beyond the frame
// CRC is each store's policy.
package cas

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"mosaic/internal/frame"
)

var (
	// ErrNotFound reports a key the directory holds no entry for.
	ErrNotFound = errors.New("cas: entry not found")
	// ErrCorrupt reports an entry that is not one intact frame of the
	// directory's magic.
	ErrCorrupt = errors.New("cas: entry is corrupt")
)

// Dir is one sharded directory. Keys are lowercase hex digests; two hex
// digits give 256 shards, keeping listings short at millions of entries.
type Dir struct {
	Root  string // created by the owning store
	Ext   string // entry suffix, with the dot
	Magic uint32 // frame magic of every entry
	Sync  bool   // fsync entries before they are renamed into place
}

// Path returns the file an entry lives in.
func (d Dir) Path(key string) string {
	return filepath.Join(d.Root, key[:2], key+d.Ext)
}

// Has reports whether an entry exists, at the cost of one stat.
func (d Dir) Has(key string) bool {
	_, err := os.Stat(d.Path(key))
	return err == nil
}

// Put installs a sealed frame under key and reports whether it wrote:
// an entry already present is left alone (keys are content addresses,
// so it holds the same bytes).
func (d Dir) Put(key string, data []byte) (bool, error) {
	if d.Has(key) {
		return false, nil
	}
	return true, d.Write(key, data)
}

// Write installs a sealed frame under key whether or not an entry is
// there: the way to replace one known to be damaged.
func (d Dir) Write(key string, data []byte) error {
	path := d.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cas: creating shard: %w", err)
	}
	return WriteFile(path, data, d.Sync)
}

// Get reads key's entry and returns its frame payload. A missing entry
// is ErrNotFound and a defective one ErrCorrupt (both wrapped); Get never
// moves or removes anything — see Quarantine.
func (d Dir) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(d.Path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("cas: reading entry: %w", err)
	}
	payload, err := frame.Decode(d.Magic, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	return payload, nil
}

// Quarantine moves a defective entry aside (<path>.corrupt) so the next
// lookup misses and a clean one can be written; the renamed file is kept
// for postmortems rather than deleted.
func (d Dir) Quarantine(key string) {
	path := d.Path(key)
	if err := os.Rename(path, path+".corrupt"); err != nil {
		// Rename failed (permissions, concurrent removal): fall back to
		// removal so the defective entry cannot be served next time.
		os.Remove(path)
	}
}

// Walk calls fn with the key of every entry, in sorted order so a scan
// is deterministic. Unreadable shards are skipped.
func (d Dir) Walk(fn func(key string)) {
	shards, _ := os.ReadDir(d.Root) // ReadDir sorts by name
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(d.Root, sh.Name()))
		for _, f := range files {
			// Only names Path maps back to this very file are entries.
			if key, ok := strings.CutSuffix(f.Name(), d.Ext); ok && strings.HasPrefix(key, sh.Name()) {
				fn(key)
			}
		}
	}
}

// WriteFile replaces path with data atomically: the bytes go to a temp
// file in the same directory (optionally fsynced) that is then renamed
// over path, so a crash leaves either the old file or the new one,
// never a torn mix.
func WriteFile(path string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("cas: creating temp file: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cas: writing %s: %w", path, err)
	}
	return nil
}
