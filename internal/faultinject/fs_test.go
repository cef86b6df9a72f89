package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"scamv/internal/journal"
	"scamv/internal/logdb"
)

// jresult is a stand-in program result: the journal stores any JSON value.
var jresult = map[string]int{"experiments": 5}

// TestTornCheckpointFallsBackToPrevious is the teeth test of the checkpoint
// recovery chain: a rename that publishes torn data (the no-fsync-ordering
// hazard FaultFS models) must be detected via the completeness marker and
// recovery must use the previous checkpoint — never the torn one.
func TestTornCheckpointFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	// Checkpoint after every append. Rename schedule: ckpt1 = #1 (tmp→ckpt);
	// ckpt2 = #2 (rotate), #3 (tmp→ckpt); ckpt3 = #4 (rotate), #5 (tmp→ckpt).
	// Tearing rename #5 leaves checkpoint.json truncated mid-JSON while
	// checkpoint.prev.json (2 programs) stays intact.
	ffs := NewFaultFS(nil, FSPlan{TornRenameAt: 5})
	c, err := journal.Open(dir, "camp", journal.Options{Every: 1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if _, err := c.Append(p, jresult); err != nil {
			t.Fatalf("append %d: %v", p, err)
		}
	}
	c.Close()

	cdir := filepath.Join(dir, "camp")
	raw, err := os.ReadFile(filepath.Join(cdir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(strings.TrimSpace(string(raw)), "}") {
		t.Fatalf("checkpoint.json should be torn, got intact JSON (%d bytes)", len(raw))
	}

	// With the journal intact, it outranks both checkpoints: full recovery.
	r, err := journal.Open(dir, "camp", journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Restored()); n != 3 {
		t.Fatalf("journal-backed recovery restored %d, want 3", n)
	}
	r.Close()

	// Without the journal, the torn primary must be rejected and the
	// previous checkpoint used instead.
	if err := os.Remove(filepath.Join(cdir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	r2, err := journal.Open(dir, "camp", journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r2.Restored()); n != 2 {
		t.Fatalf("fallback recovery restored %d, want 2 (previous checkpoint)", n)
	}
	if err := r2.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	r2.Close()
}

// TestJournalAppendENOSPCIsStickyAndClean: a full disk fails the append
// loudly, later appends keep failing (no silent gap), and what reached the
// disk before the fault is still a loadable prefix.
func TestJournalAppendENOSPCIsStickyAndClean(t *testing.T) {
	dir := t.TempDir()
	// Write #1 is the header; appends are one write each.
	ffs := NewFaultFS(nil, FSPlan{FailWriteAt: 3})
	c, err := journal.Open(dir, "camp", journal.Options{Every: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(0, jresult); err != nil {
		t.Fatal(err)
	}
	_, err = c.Append(1, jresult)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if _, err2 := c.Append(2, jresult); !errors.Is(err2, syscall.ENOSPC) {
		t.Fatalf("sticky error lost: %v", err2)
	}
	c.Close()
	r, err := journal.Open(dir, "camp", journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Restored()); n != 1 {
		t.Fatalf("restored %d, want 1 (the pre-fault prefix)", n)
	}
	r.Close()
}

// TestJournalShortWriteLeavesRecoverableTornLine: a short write tears the
// final line; resume drops it and the campaign redoes that one program.
func TestJournalShortWriteLeavesRecoverableTornLine(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil, FSPlan{ShortWriteAt: 3})
	c, err := journal.Open(dir, "camp", journal.Options{Every: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(0, jresult); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(1, jresult); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC after short write, got %v", err)
	}
	c.Close()
	r, err := journal.Open(dir, "camp", journal.Options{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Restored()); n != 1 {
		t.Fatalf("restored %d, want 1 (torn line dropped)", n)
	}
	// The repaired journal accepts the redo of program 1.
	if _, err := r.Append(1, jresult); err != nil {
		t.Fatal(err)
	}
	r.Close()
}

// TestJournalFsyncFailureSurfaces: an fsync failure means the record may not
// be durable; Append must say so rather than report success.
func TestJournalFsyncFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	// Sync #1 covers the header; sync #2 is append 0.
	ffs := NewFaultFS(nil, FSPlan{FailSyncAt: 2})
	c, err := journal.Open(dir, "camp", journal.Options{Every: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(0, jresult); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO from injected fsync fault, got %v", err)
	}
}

// TestLogdbStickyWriteErrorUnderFault pins the logdb satellite fix: after a
// failed flush, every subsequent Append/Commit surfaces the original error
// instead of silently buffering records that can never be written — the
// partial-line interleave hazard.
func TestLogdbStickyWriteErrorUnderFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	db := logdb.NewWriter(NewFaultWriter(f, FSPlan{ShortWriteAt: 1}))
	if err := db.Append(logdb.Record{Experiment: "e", Verdict: "indistinguishable"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC from first commit, got %v", err)
	}
	if err := db.Append(logdb.Record{Experiment: "e2"}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after failed flush must surface the sticky error, got %v", err)
	}
	if err := db.Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Err() = %v, want sticky ENOSPC", err)
	}
	if err := db.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close must propagate the sticky error, got %v", err)
	}
	// Nothing after the torn half-line may have reached the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "e2") {
		t.Fatalf("record appended after failed flush leaked to disk: %q", data)
	}
}
