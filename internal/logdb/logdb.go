// Package logdb is the JSON-lines layer: the experiment log, standing in for
// the SQLite-based EmbExp-Logs database of the original Scam-V artifact
// (every executed experiment appends one Record, and whole runs can be
// reloaded for offline analysis), and the writer and torn-tail reader that
// the telemetry trace shares with it.
package logdb

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Record describes one executed experiment.
type Record struct {
	Experiment string `json:"experiment"`
	Program    string `json:"program"`
	TestIndex  int    `json:"test_index"`
	PathA      int    `json:"path_a"`
	PathB      int    `json:"path_b"`
	Class      int    `json:"class"`
	Verdict    string `json:"verdict"`
	// Platform names the matrix-campaign platform this verdict was measured
	// on; empty for single-platform campaigns, so their logs are unchanged.
	Platform  string `json:"platform,omitempty"`
	GenMicros int64  `json:"gen_us"`
	ExeMicros int64  `json:"exe_us"`
	// Diff lists where the two states of the test case differ (register
	// names, plus "mem" when the initial memory images differ): the raw
	// material for the counterexample pattern analysis of the paper's §1.
	Diff []string `json:"diff,omitempty"`
}

// Writer appends values to an underlying writer, one JSON object per line.
// It is safe for concurrent use.
//
// Write errors are sticky: once any append or flush fails, every subsequent
// Append returns the original error instead of silently continuing.
// Without the latch, a failed flush could leave a partial line in the file
// and a later successful append would splice its record onto the torn
// tail — corrupting the line in a way the reader cannot distinguish from a
// clean crash. With it, the file ends at the torn line, which is exactly
// the shape Read is specified to recover from.
type Writer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	name   string // named by the error of an Append after Close
	closed bool
	err    error // first write error, sticky
}

// NewWriter wraps an arbitrary writer (e.g. a bytes.Buffer in tests). Close
// also closes w when it is an io.Closer.
func NewWriter(w io.Writer) *Writer {
	out := &Writer{bw: bufio.NewWriter(w), name: "log"}
	if c, ok := w.(io.Closer); ok {
		out.closer = c
	}
	return out
}

// Create creates (or truncates) a file and returns a Writer appending to it.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("logdb: %w", err)
	}
	w := NewWriter(f)
	w.name = path
	return w, nil
}

// Append writes v as one line. Marshalling happens outside the lock. After
// Close it returns an error naming the closed file.
func (w *Writer) Append(v any) error {
	b, merr := json.Marshal(v)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("logdb: %s is closed", w.name)
	}
	if merr != nil {
		w.err = fmt.Errorf("logdb: %w", merr)
		return w.err
	}
	if _, err := w.bw.Write(append(b, '\n')); err != nil {
		w.err = fmt.Errorf("logdb: %w", err)
	}
	return w.err
}

// Close flushes and closes the underlying writer, if it is an io.Closer.
// The file is closed even when the flush fails, and both errors are
// propagated along with any earlier sticky write error: a close error after
// a clean flush can still mean the kernel failed to persist buffered
// writes, so swallowing either would hide a truncated file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	var ferr, cerr error
	if w.err == nil {
		if err := w.bw.Flush(); err != nil {
			ferr = fmt.Errorf("logdb: flush: %w", err)
		}
	}
	if w.closer != nil {
		if err := w.closer.Close(); err != nil {
			cerr = fmt.Errorf("logdb: close: %w", err)
		}
	}
	return errors.Join(w.err, ferr, cerr)
}

// Read decodes one T per non-empty line, running check (when non-nil) on
// each. A malformed line is held back as torn until the input ends: if it
// was the last non-empty line it is a crash mid-append, returned as torn
// (an error naming the line) with every record before it; any later
// non-empty line makes it corruption and a hard error. An error from check
// is always a hard error. Callers choose strict or tolerant handling from
// torn.
func Read[T any](r io.Reader, check func(*T) error) (recs []T, torn, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if torn != nil {
			return nil, nil, torn
		}
		var rec T
		if uerr := json.Unmarshal(sc.Bytes(), &rec); uerr != nil {
			torn = fmt.Errorf("logdb: line %d: %w", line, uerr)
			continue
		}
		if check != nil {
			if cerr := check(&rec); cerr != nil {
				return nil, nil, fmt.Errorf("logdb: line %d: %w", line, cerr)
			}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("logdb: %w", err)
	}
	return recs, torn, nil
}

// Load reads a file via Read.
func Load[T any](path string, check func(*T) error) (recs []T, torn, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err // an *os.PathError names the path
	}
	defer f.Close()
	return Read(f, check)
}
