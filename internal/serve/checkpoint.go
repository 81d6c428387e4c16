package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mosaic/internal/cache"
	"mosaic/internal/cas"
	"mosaic/internal/obs"
)

// Checkpoint layout under Config.CheckpointDir:
//
//	<id>.job     — JSON job metadata (spec, submit time, and the numeric
//	               generation the journal was computed under)
//	<id>.journal — tile journal of the run (appended as windows complete)
//
// A drain writes .job for every queued and running job, through a temp
// file and a rename so a crash mid-drain leaves a whole file or none;
// every job journals while it runs. New scans the directory and re-queues
// every .job it finds. The window is the one restart unit: a journaled
// window is adopted — unless another numeric generation computed it, in
// which case the job starts over — and every other window runs through the
// warm-start, cache and runner chain a fresh submission takes.

type checkpointMeta struct {
	ID          string    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	SubmittedAt time.Time `json:"submitted_at"`
	// DigestVersion is the cache.DigestVersion of the build that wrote the
	// job's .journal.
	DigestVersion int `json:"digest_version"`
}

// checkpointLocked persists a job's .job file; the caller holds j.mu. It
// reports whether the job can be resumed by a restarted server.
func (s *Server) checkpointLocked(j *job) bool {
	if s.cfg.CheckpointDir == "" {
		return false
	}
	meta := checkpointMeta{
		ID:            j.id,
		Spec:          j.spec,
		SubmittedAt:   j.submitted,
		DigestVersion: cache.DigestVersion,
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		obs.Logger().Warn("serve: encoding checkpoint meta", "job", j.id, "err", err)
		return false
	}
	if err := cas.WriteFile(s.checkpointPath(j.id, ".job"), data, false); err != nil {
		obs.Logger().Warn("serve: writing checkpoint meta", "job", j.id, "err", err)
		return false
	}
	return true
}

// restore scans the checkpoint directory and re-queues every job a
// previous server left behind.
func (s *Server) restore() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".job") {
			continue
		}
		path := filepath.Join(s.cfg.CheckpointDir, e.Name())
		j, err := s.restoreOne(path)
		if err != nil {
			obs.Logger().Warn("serve: skipping unreadable checkpoint", "path", path, "err", err)
			continue
		}
		_ = s.enqueue(j) // refuses only submissions, never a resumed job
		mJobsResumed.Inc()
		obs.Logger().Info("serve: resumed checkpointed job", "job", j.id)
	}
	return nil
}

// restoreOne rebuilds a job from its .job meta file. Windows journaled by a
// build of another numeric generation (or by one that did not say) are
// discarded: adopting them would stitch that build's tiles beside this
// build's under one Merkle root.
func (s *Server) restoreOne(path string) (*job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var meta checkpointMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, err
	}
	if meta.ID == "" {
		return nil, errors.New("checkpoint meta lacks a job id")
	}
	j, err := s.newJob(meta.ID, meta.Spec, meta.SubmittedAt)
	if err != nil {
		return nil, err
	}
	j.resumed = true
	if meta.DigestVersion != cache.DigestVersion {
		obs.Logger().Warn("serve: checkpoint is of another numeric generation; recomputing every window",
			"job", meta.ID, "digest_version", meta.DigestVersion, "want", cache.DigestVersion)
		if err := os.Remove(s.checkpointPath(meta.ID, ".journal")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("discarding stale journal: %w", err)
		}
	}
	return j, nil
}

// checkpointPath names one of a job's checkpoint files.
func (s *Server) checkpointPath(id, ext string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ext)
}

// removeCheckpoint deletes a finished job's checkpoint files, and the
// per-iteration snapshot an older build may have left beside them.
func (s *Server) removeCheckpoint(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	for _, ext := range []string{".job", ".snap", ".journal"} {
		if err := os.Remove(s.checkpointPath(id, ext)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			obs.Logger().Warn("serve: removing checkpoint file", "job", id, "err", err)
		}
	}
}
