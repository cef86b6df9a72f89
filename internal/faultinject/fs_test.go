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

// TestJournalAppendENOSPCIsStickyAndClean: a full disk fails the append
// loudly, later appends keep failing (no silent gap), and what reached the
// disk before the fault is still a loadable prefix.
func TestJournalAppendENOSPCIsStickyAndClean(t *testing.T) {
	dir := t.TempDir()
	// Write #1 is the header; appends are one write each.
	ffs := NewFaultFS(nil, FSPlan{FailWriteAt: 3})
	c, err := journal.Open(dir, "camp", journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, jresult); err != nil {
		t.Fatal(err)
	}
	err = c.Append(1, jresult)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if err2 := c.Append(2, jresult); !errors.Is(err2, syscall.ENOSPC) {
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
	c, err := journal.Open(dir, "camp", journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, jresult); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(1, jresult); !errors.Is(err, syscall.ENOSPC) {
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
	if err := r.Append(1, jresult); err != nil {
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
	c, err := journal.Open(dir, "camp", journal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin("camp", "fp"); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, jresult); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO from injected fsync fault, got %v", err)
	}
}

// TestLogdbStickyWriteErrorUnderFault pins logdb's sticky write error: once
// a buffer flush is cut short, every subsequent Append and Close surfaces the
// original error instead of silently buffering records that can never be
// written — the partial-line interleave hazard.
func TestLogdbStickyWriteErrorUnderFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	f, err := NewFaultFS(nil, FSPlan{ShortWriteAt: 1}).Create(path)
	if err != nil {
		t.Fatal(err)
	}
	db := logdb.NewWriter(f)
	// Append until the 4 KiB buffer flushes: that first file write is cut
	// short.
	var appended int
	for err = nil; err == nil; appended++ {
		if appended > 1000 {
			t.Fatal("the log never flushed its buffer")
		}
		err = db.Append(logdb.Record{Experiment: "e", Verdict: "indistinguishable"})
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC from the first flush, got %v", err)
	}
	if err := db.Append(logdb.Record{Experiment: "e2"}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after failed flush must surface the sticky error, got %v", err)
	}
	if err := db.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close must propagate the sticky error, got %v", err)
	}
	// Nothing after the torn half-line may have reached the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || strings.Contains(string(data), "e2") {
		t.Fatalf("file after the short write: %q", data)
	}
}
