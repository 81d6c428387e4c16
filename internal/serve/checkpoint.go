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

	"mosaic"
	"mosaic/internal/cache"
	"mosaic/internal/cas"
	"mosaic/internal/obs"
)

// Checkpoint layout under Config.CheckpointDir:
//
//	<id>.job     — JSON job metadata (spec, priority, submit time, and the
//	               numeric generation the other two files were computed under)
//	<id>.snap    — latest ilt snapshot of a one-window run (one MSNP frame)
//	<id>.journal — tile journal of the run (appended as tiles complete)
//
// A drain writes .job for every queued and running job and .snap for
// running jobs that have a snapshot (only a one-window job's optimizer
// emits them), each through a temp file and a rename so a crash mid-drain
// leaves a whole file or none; every job journals while it runs. New
// scans the directory and re-queues every .job it finds; completed tiles
// and finished iterations are not recomputed — unless another numeric
// generation computed them, in which case the job starts over.

type checkpointMeta struct {
	ID          string    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	Priority    int       `json:"priority"`
	SubmittedAt time.Time `json:"submitted_at"`
	// DigestVersion is the cache.DigestVersion of the build that wrote the
	// job's .snap and .journal.
	DigestVersion int `json:"digest_version"`
}

// checkpointLocked persists a job's checkpoint files; the caller holds
// j.mu. It reports whether the job can be resumed by a restarted server.
func (s *Server) checkpointLocked(j *job) bool {
	if s.cfg.CheckpointDir == "" {
		return false
	}
	meta := checkpointMeta{
		ID:            j.id,
		Spec:          j.spec,
		Priority:      j.spec.Priority,
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
	if j.snap != nil {
		blob, err := j.snap.MarshalBinary()
		if err == nil {
			err = cas.WriteFile(s.checkpointPath(j.id, ".snap"), blob, false)
		}
		if err != nil {
			// The snapshot is an optimization: without it the job restarts
			// from iteration zero, still correct.
			obs.Logger().Warn("serve: writing snapshot", "job", j.id, "err", err)
		}
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

// restoreOne rebuilds a job from its .job meta file, picking up a .snap
// checkpoint when one exists. Progress checkpointed by a build of another
// numeric generation (or by one that did not say) is discarded: replaying
// its snapshot would continue that build's trajectory with this build's
// numerics and cache the mix under this build's content key, and adopting
// its journal would stitch its tiles beside this build's under one Merkle
// root.
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
		obs.Logger().Warn("serve: checkpoint is of another numeric generation; restarting the job from iteration 0",
			"job", meta.ID, "digest_version", meta.DigestVersion, "want", cache.DigestVersion)
		for _, ext := range []string{".snap", ".journal"} {
			if err := os.Remove(s.checkpointPath(meta.ID, ext)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("discarding stale %s: %w", ext, err)
			}
		}
	}
	if blob, err := os.ReadFile(s.checkpointPath(meta.ID, ".snap")); err == nil {
		var sn mosaic.Snapshot
		if err := sn.UnmarshalBinary(blob); err != nil {
			obs.Logger().Warn("serve: ignoring corrupt snapshot", "job", meta.ID, "err", err)
		} else {
			j.resume = &sn
		}
	}
	return j, nil
}

// checkpointPath names one of a job's checkpoint files.
func (s *Server) checkpointPath(id, ext string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ext)
}

// removeCheckpoint deletes a finished job's checkpoint files.
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
