package serve

// Crash-recovery journal: one sealed machine checkpoint per in-flight
// job, keyed by a content hash of the request and of the artifact's
// schedule (so an identical request re-submitted after a crash — worker
// panic, watchdog kill, process death — finds the interrupted run's
// last barrier state and resumes it instead of starting over, and one
// re-submitted under a swapped artifact runs fresh and drops the entry
// it can no longer resume). Writes go through ckpt.WriteFile (temp file
// in the same directory, sync, atomic rename), as ipim-run's
// -checkpoint file does: a crash mid-write leaves either the previous
// checkpoint or the new one, never a torn file — and a file damaged
// some other way is rejected by the checkpoint CRC and discarded.
//
// Lifecycle: the run's CheckpointSink overwrites the job's journal
// entry at every covered barrier; the entry is removed only when the
// run completes and its response is derivable — any failure (panic,
// cancellation, budget abort, process death) keeps the last checkpoint
// on disk for the next attempt.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ipim/internal/autotune"
	"ipim/internal/ckpt"
)

// ckptExt is the journal entry suffix; pending() counts these.
const ckptExt = ".ckpt"

// ckptJournal is the on-disk checkpoint store. Safe for concurrent use;
// per-job writes are serialized by the fact that one job runs on one
// worker at a time, but distinct jobs share the directory.
type ckptJournal struct {
	dir string
	mu  sync.Mutex
}

// newCkptJournal ensures the journal directory exists.
func newCkptJournal(dir string) (*ckptJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: checkpoint journal: %w", err)
	}
	return &ckptJournal{dir: dir}, nil
}

func (j *ckptJournal) path(id string) string {
	return filepath.Join(j.dir, id+ckptExt)
}

// write atomically replaces the job's journal entry (ckpt.WriteFile).
func (j *ckptJournal) write(id string, data []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := ckpt.WriteFile(j.path(id), data); err != nil {
		return fmt.Errorf("serve: checkpoint journal: %w", err)
	}
	return nil
}

// load returns the job's journal entry, or false when there is none.
func (j *ckptJournal) load(id string) ([]byte, bool) {
	data, err := os.ReadFile(j.path(id))
	if err != nil {
		return nil, false
	}
	return data, true
}

// remove deletes the job's journal entry (run completed, or the entry
// proved unusable).
func (j *ckptJournal) remove(id string) {
	os.Remove(j.path(id))
}

// ids lists the job ids of every journal entry on disk — the boot-time
// backlog inventory the readiness gate tracks (see recoveryState).
func (j *ckptJournal) ids() []string {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ckptExt {
			ids = append(ids, strings.TrimSuffix(e.Name(), ckptExt))
		}
	}
	return ids
}

// stale lists the entries the same request left under another
// schedule than id's: ids that share id's request half (see jobID).
func (j *ckptJournal) stale(id string) []string {
	req, _, _ := strings.Cut(id, "-")
	var out []string
	for _, other := range j.ids() {
		if r, _, ok := strings.Cut(other, "-"); ok && r == req && other != id {
			out = append(out, other)
		}
	}
	return out
}

// pending counts journal entries awaiting a resuming request — the
// ipim_checkpoint_journal_pending gauge.
func (j *ckptJournal) pending() int { return len(j.ids()) }

// recoveryState gates /readyz on the checkpoint-journal backlog the
// server BOOTED with. Only boot-time entries count: a journal entry
// written for an in-flight run must not flip readiness, or every
// journaled request would bounce the worker out of the balancer. Each
// backlog id is ticked off when its entry is removed (resumed to
// completion, or discarded as unusable), and the whole gate expires at
// the recovery-grace deadline so a backlog nobody re-submits cannot
// park the worker in not-ready forever. A nil *recoveryState (no
// journal) reports an empty backlog.
type recoveryState struct {
	mu       sync.Mutex
	ids      map[string]struct{}
	deadline time.Time
}

// newRecoveryState records the boot-time journal inventory; grace
// bounds how long the backlog may hold readiness down.
func newRecoveryState(ids []string, grace time.Duration) *recoveryState {
	rs := &recoveryState{ids: make(map[string]struct{}, len(ids)), deadline: time.Now().Add(grace)}
	for _, id := range ids {
		rs.ids[id] = struct{}{}
	}
	return rs
}

// done ticks a job off the backlog (no-op for ids journaled after
// boot, and on a nil receiver).
func (rs *recoveryState) done(id string) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	delete(rs.ids, id)
	rs.mu.Unlock()
}

// backlog returns how many boot-time journal entries still await
// resume, or 0 once the grace deadline has passed.
func (rs *recoveryState) backlog() int {
	if rs == nil {
		return 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.ids) == 0 || time.Now().After(rs.deadline) {
		return 0
	}
	return len(rs.ids)
}

// jobID derives the journal key for one plane run of one request,
// "<request>-<schedule>": a content hash over everything the request
// determines, then a hash of the artifact's tuned schedule (nil: the
// default). A crashed job is matched exactly by its re-submission under
// the same artifact and can never collide with a different workload,
// image, budget or schedule; a re-submission under another schedule
// finds the old entry by its request half (ckptJournal.stale).
func jobID(workload, opts, mode string, maxCycles int64, sched *autotune.Candidate, plane int, body []byte) string {
	schedule := "default"
	if sched != nil {
		schedule = sched.String()
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|", workload, opts, mode, maxCycles, plane)
	h.Write(body)
	sh := sha256.Sum256([]byte(schedule))
	return hex.EncodeToString(h.Sum(nil)[:16]) + "-" + hex.EncodeToString(sh[:8])
}

// jitter is the retry backoff source: full jitter (uniform in
// [0, base<<attempt), capped), which decorrelates the retry storms a
// deterministic exponential schedule produces when many requests hit
// the same transient fault window. Seedable so tests get a fixed
// sequence.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// newJitter builds a backoff source from seed.
func newJitter(seed int64) *jitter {
	return &jitter{rng: rand.New(rand.NewSource(seed))}
}

// backoffCap bounds a single backoff wait regardless of attempt count.
const backoffCap = 5 * time.Second

// backoff returns the full-jitter wait for the given zero-based
// attempt: uniform in [0, min(cap, base<<attempt)).
func (j *jitter) backoff(base time.Duration, attempt int) time.Duration {
	ceil := base << uint(attempt)
	if ceil <= 0 || ceil > backoffCap {
		ceil = backoffCap
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return time.Duration(j.rng.Int63n(int64(ceil) + 1))
}
