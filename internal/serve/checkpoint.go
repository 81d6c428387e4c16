package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mosaic/internal/cas"
	"mosaic/internal/obs"
)

// Checkpoint layout under Config.CheckpointDir: one <id>.job per job, its
// JSON metadata (spec and submit time). A drain writes it for every queued
// and running job, through a temp file and a rename so a crash mid-drain
// leaves a whole file or none. New scans the directory and re-queues every
// .job it finds, and the resumed job runs every window through the
// warm-start, cache and runner chain a fresh submission takes. The
// windows it finished before the drain are in the tile cache's disk tier,
// which New requires beside a checkpoint directory; they are served from
// there under their keys, so resumed == fresh holds by construction, and
// a build of another numeric generation (cache.DigestVersion, folded into
// every key) is never served this one's windows.

type checkpointMeta struct {
	ID          string    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	SubmittedAt time.Time `json:"submitted_at"`
}

// checkpointLocked persists a job's .job file; the caller holds j.mu. It
// reports whether the job can be resumed by a restarted server.
func (s *Server) checkpointLocked(j *job) bool {
	if s.cfg.CheckpointDir == "" {
		return false
	}
	meta := checkpointMeta{ID: j.id, Spec: j.spec, SubmittedAt: j.submitted}
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

// restoreOne rebuilds a job from its .job meta file. The spec is decoded
// as a submission is: one holding a field this build does not have asked
// for an option no code path would honour, and is refused. Around the
// spec, a key an older build wrote (digest_version) is ignored.
func (s *Server) restoreOne(path string) (*job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var meta struct {
		checkpointMeta
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return nil, err
	}
	if meta.ID == "" {
		return nil, errors.New("checkpoint meta lacks a job id")
	}
	var spec JobSpec
	if err := decodeSpec(bytes.NewReader(meta.Spec), &spec); err != nil {
		return nil, fmt.Errorf("checkpoint spec: %w", err)
	}
	j, err := s.newJob(meta.ID, spec, meta.SubmittedAt)
	if err != nil {
		return nil, err
	}
	j.resumed = true
	return j, nil
}

// checkpointPath names one of a job's checkpoint files.
func (s *Server) checkpointPath(id, ext string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ext)
}

// removeCheckpoint deletes a finished job's checkpoint file, and the
// per-iteration snapshot and tile journal an older build may have left
// beside it.
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
