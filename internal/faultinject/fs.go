package faultinject

import (
	"fmt"
	"sync/atomic"
	"syscall"

	"scamv/internal/journal"
)

// This file is the filesystem half of the chaos harness: a journal.FS
// wrapper that injects the storage failure modes a long campaign meets in
// the wild — a full disk (ENOSPC), a short write and a failing fsync. The
// journal and logdb recovery paths are specified against exactly these
// faults; FaultFS is what turns the specification into teeth tests.

// FSPlan schedules filesystem faults by 1-based global operation number
// (0 = never). Counting is per-FaultFS and deterministic for a serial
// caller, which the journal is: appends run under one lock.
type FSPlan struct {
	// FailWriteAt fails the Nth file write with ENOSPC before any bytes land.
	FailWriteAt uint64
	// ShortWriteAt writes only half the Nth file write's bytes, then fails
	// with ENOSPC — the torn-line generator.
	ShortWriteAt uint64
	// FailSyncAt fails the Nth fsync with EIO: the data may or may not be
	// durable, the caller must assume not.
	FailSyncAt uint64
}

// FaultFS wraps an inner journal.FS (nil = the real filesystem) with an
// FSPlan. Safe for concurrent use; operation numbers are global across all
// files it opened.
type FaultFS struct {
	inner journal.FS
	plan  FSPlan

	writes atomic.Uint64
	syncs  atomic.Uint64
}

// NewFaultFS builds the fault-injecting filesystem.
func NewFaultFS(inner journal.FS, plan FSPlan) *FaultFS {
	if inner == nil {
		inner = journal.OSFS{}
	}
	return &FaultFS{inner: inner, plan: plan}
}

// MkdirAll implements journal.FS.
func (f *FaultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

// Create implements journal.FS.
func (f *FaultFS) Create(name string) (journal.File, error) {
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// OpenAppend implements journal.FS.
func (f *FaultFS) OpenAppend(name string) (journal.File, error) {
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Truncate implements journal.FS.
func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// SyncDir implements journal.FS.
func (f *FaultFS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// faultFile counts writes/syncs against the parent plan.
type faultFile struct {
	fs    *FaultFS
	inner journal.File
}

// Write implements io.Writer with injected ENOSPC and short writes.
func (f *faultFile) Write(p []byte) (int, error) {
	n := f.fs.writes.Add(1)
	if f.fs.plan.FailWriteAt != 0 && n == f.fs.plan.FailWriteAt {
		return 0, fmt.Errorf("faultinject: injected write fault: %w", syscall.ENOSPC)
	}
	if f.fs.plan.ShortWriteAt != 0 && n == f.fs.plan.ShortWriteAt {
		half := len(p) / 2
		if wn, err := f.inner.Write(p[:half]); err != nil {
			return wn, err
		}
		return half, fmt.Errorf("faultinject: injected short write: %w", syscall.ENOSPC)
	}
	return f.inner.Write(p)
}

// Sync implements journal.File with injected fsync failures.
func (f *faultFile) Sync() error {
	n := f.fs.syncs.Add(1)
	if f.fs.plan.FailSyncAt != 0 && n == f.fs.plan.FailSyncAt {
		return fmt.Errorf("faultinject: injected fsync fault: %w", syscall.EIO)
	}
	return f.inner.Sync()
}

// Close implements journal.File.
func (f *faultFile) Close() error { return f.inner.Close() }
