package server

import (
	"errors"
	"io"
	"net/http"
	"os"

	"apclassifier/internal/checkpoint"
)

// EnableCheckpoints attaches a managed checkpoint directory to the
// server and starts the background checkpointer: an initial save so the
// directory is restorable as soon as the service is up, a save after
// every coalescing window with published updates, the optional periodic
// timer, and a final save on Stop. It also arms the POST /checkpoint
// endpoint for operator-forced saves. Call before Handler is serving
// traffic; the returned runner's Stop is the graceful-shutdown hook.
//
// Capture is Classifier.CheckpointSource: queries never wait, updates
// only while it copies the rule tables.
func (s *Server) EnableCheckpoints(dir *checkpoint.Dir, cfg checkpoint.RunnerConfig) *checkpoint.Runner {
	s.ckpt = dir
	return checkpoint.StartRunner(dir, s.c.Manager, s.c.CheckpointSource, cfg)
}

// handleCheckpoint forces a checkpoint right now — the operator's "save
// before I do something risky" button. 503 when the server was started
// without a checkpoint directory.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	// The endpoint takes no body, but a client that sends one anyway is
	// bounded like every other POST: drain up to the limit, 413 past it.
	r.Body = http.MaxBytesReader(w, r.Body, maxSingleBody)
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", int64(maxSingleBody))
			return
		}
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if s.ckpt == nil {
		writeErr(w, http.StatusServiceUnavailable, "checkpointing disabled: start apserver with -checkpoint-dir")
		return
	}
	path, err := s.ckpt.Save(s.c.CheckpointSource())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "checkpoint failed: %v", err)
		return
	}
	size := int64(0)
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"path":      path,
		"sizeBytes": size,
		"epoch":     s.c.Manager.Version(),
	})
}

// handleCheckpointLatest streams the newest committed checkpoint file —
// the peer-bootstrap path: a worker joining (or rejoining) the fleet
// fetches a sibling's checkpoint and warm-restores from it instead of
// cold-rebuilding from rules. The file is immutable once committed
// (saves create new names), so serving it takes no lock and races no
// writer; ServeFile handles range requests and conditional gets.
func (s *Server) handleCheckpointLatest(w http.ResponseWriter, r *http.Request) {
	if s.ckpt == nil {
		writeErr(w, http.StatusServiceUnavailable, "checkpointing disabled: start apserver with -checkpoint-dir")
		return
	}
	path, err := s.ckpt.Latest()
	if errors.Is(err, os.ErrNotExist) {
		writeErr(w, http.StatusNotFound, "no checkpoint committed yet")
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}
