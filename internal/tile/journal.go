package tile

import (
	"fmt"
	"os"
	"sync"

	"mosaic/internal/frame"
	"mosaic/internal/ilt"
	"mosaic/internal/obs"
)

// FileJournal persists per-tile results as a run completes them, so a
// rerun after a crash (or a drained daemon) restarts only the unfinished
// tiles. It is an append-only file, safe for concurrent Record calls from
// the scheduler's workers. Each record is one MJRN frame holding the tile
// index and the shared result body (ilt.NewResultFrame); a torn tail (the
// record a crashed worker was mid-write on) is detected and ignored on
// load, so a journal survives kill -9 semantics without recovery tooling.
type FileJournal struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// journalMagic heads every record frame.
const journalMagic uint32 = 0x4d4a524e // "MJRN"

// OpenFileJournal opens (creating if absent) the journal at path for
// appending. Close releases the file handle.
func OpenFileJournal(path string) (*FileJournal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tile: opening journal: %w", err)
	}
	return &FileJournal{path: path, f: f}, nil
}

// Close closes the underlying file.
func (j *FileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Record appends one tile result. The frame is assembled in memory and
// written with a single Write call so concurrent appends stay whole.
func (j *FileJournal) Record(index int, res *ilt.Result) error {
	if res == nil || res.MaskGray == nil {
		return fmt.Errorf("tile: journaling tile %d without a gray mask", index)
	}
	record := ilt.NewResultFrame(int64(index), res).Seal(journalMagic)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("tile: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(record); err != nil {
		return fmt.Errorf("tile: appending journal record: %w", err)
	}
	return nil
}

// Load scans the journal from the start and returns every intact record
// whose window matches the plan. Scanning stops at the first torn or
// corrupt frame — everything after it was written during or after the
// crash being recovered from.
func (j *FileJournal) Load(p *Plan) (map[int]*ilt.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil, fmt.Errorf("tile: journal %s is closed", j.path)
	}
	data, err := os.ReadFile(j.path)
	if err != nil {
		return nil, fmt.Errorf("tile: reading journal: %w", err)
	}
	out := make(map[int]*ilt.Result)
	off, defect := frame.Scan(journalMagic, data, func(payload []byte) error {
		r := frame.NewReader(payload)
		idx := int(r.I64())
		res := ilt.ReadResult(r)
		if err := r.Done(); err != nil {
			return err
		}
		if idx >= 0 && idx < len(p.Tiles) && res.MaskGray.W == p.WindowPx {
			out[idx] = res
		}
		return nil
	})
	if defect != nil {
		obs.Logger().Warn("tile journal: defective record; ignoring tail",
			"path", j.path, "offset", off, "err", defect)
	}
	return out, nil
}
