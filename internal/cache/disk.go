package cache

import (
	"errors"
	"fmt"
	"os"

	"mosaic/internal/cas"
	"mosaic/internal/frame"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
)

// Disk tier: a cas.Dir of MTCE frames, dir/<2-hex-digit shard>/<digest>.mtc,
// whose payload is the entry version followed by the shared result body
// (ilt.NewResultFrame). Any defect found on read — bad magic, short file,
// CRC mismatch, implausible window, version skew — quarantines the entry
// (renamed to .corrupt) and reports a miss: a damaged cache costs a
// recompute, never a failed run.
const (
	diskMagic   uint32 = 0x4543544d // "MTCE"
	diskVersion        = 2
)

// initDir creates the disk tier's root directory.
func (s *Store) initDir() error {
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("cache: creating cache dir: %w", err)
	}
	return nil
}

func (s *Store) disk() cas.Dir { return cas.Dir{Root: s.dir, Ext: ".mtc", Magic: diskMagic} }

// diskPut persists a result. Best-effort: any failure is logged and the
// entry simply stays absent.
func (s *Store) diskPut(key Key, res *ilt.Result) {
	if s.dir == "" || res == nil || res.MaskGray == nil {
		return
	}
	entry := ilt.NewResultFrame(diskVersion, res).Seal(diskMagic)
	if _, err := s.disk().Put(key.String(), entry); err != nil {
		obs.Logger().Warn("cache: writing entry", "key", key, "err", err)
	}
}

// diskGet loads key's entry, quarantining anything that does not decode
// cleanly.
func (s *Store) diskGet(key Key) (*ilt.Result, bool) {
	if s.dir == "" {
		return nil, false
	}
	payload, err := s.disk().Get(key.String())
	if err == nil {
		r := frame.NewReader(payload)
		r.Version(diskVersion)
		res := ilt.ReadResult(r)
		if err = r.Done(); err == nil {
			return res, true
		}
		err = fmt.Errorf("%w: %v", cas.ErrCorrupt, err)
	}
	switch {
	case errors.Is(err, cas.ErrNotFound):
	case errors.Is(err, cas.ErrCorrupt):
		s.quarantine(key, err)
	default:
		obs.Logger().Warn("cache: reading entry", "key", key, "err", err)
	}
	return nil, false
}

// quarantine moves a defective entry aside so the next lookup recomputes
// and re-persists a clean one.
func (s *Store) quarantine(key Key, cause error) {
	mCorrupt.Inc()
	obs.Logger().Warn("cache: quarantining corrupt entry", "key", key, "err", cause)
	s.disk().Quarantine(key.String())
}
