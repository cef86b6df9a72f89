// Package logdb is a small JSON-lines experiment log, standing in for the
// SQLite-based EmbExp-Logs database of the original Scam-V artifact: every
// executed experiment appends one record, and whole runs can be reloaded
// for offline analysis.
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
	Asm        string `json:"asm,omitempty"`
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

// Syncer is the optional durability hook of a DB's underlying writer: a
// writer that also implements Syncer (an *os.File does) gains real fsync
// through Commit. Plain writers (a bytes.Buffer in tests) degrade to
// flush-only commits.
type Syncer interface {
	Sync() error
}

// DB appends records to an underlying writer, one JSON object per line.
// It is safe for concurrent use.
//
// Write errors are sticky: once any append or flush fails, every subsequent
// Append/Commit returns the original error instead of silently continuing.
// Without the latch, a failed flush could leave a partial line
// in the file and a later successful append would splice its record onto
// the torn tail — corrupting the line in a way the tolerant reader cannot
// distinguish from a clean crash. With it, the file ends at the torn line,
// which is exactly the shape ReadTolerant is specified to recover from.
type DB struct {
	mu     sync.Mutex
	w      *bufio.Writer
	sync   Syncer // non-nil when the underlying writer supports fsync
	closer io.Closer
	n      int
	werr   error // first write error, sticky
}

// NewWriter wraps an arbitrary writer (e.g. a bytes.Buffer in tests). A
// writer implementing Syncer makes Commit durable.
func NewWriter(w io.Writer) *DB {
	d := &DB{w: bufio.NewWriter(w)}
	if s, ok := w.(Syncer); ok {
		d.sync = s
	}
	if c, ok := w.(io.Closer); ok {
		d.closer = c
	}
	return d
}

// Open creates (or truncates) a log file.
func Open(path string) (*DB, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("logdb: %w", err)
	}
	return &DB{w: bufio.NewWriter(f), sync: f, closer: f}, nil
}

// Append writes one record.
func (d *DB) Append(r Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.werr != nil {
		return d.werr
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("logdb: %w", err)
	}
	if _, err := d.w.Write(b); err != nil {
		d.werr = fmt.Errorf("logdb: %w", err)
		return d.werr
	}
	if err := d.w.WriteByte('\n'); err != nil {
		d.werr = fmt.Errorf("logdb: %w", err)
		return d.werr
	}
	d.n++
	return nil
}

// Commit flushes buffered records to the underlying writer and, when it
// supports Syncer, fsyncs them to stable storage. A commit failure latches
// the sticky write error.
func (d *DB) Commit() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.werr != nil {
		return d.werr
	}
	if err := d.w.Flush(); err != nil {
		d.werr = fmt.Errorf("logdb: flush: %w", err)
		return d.werr
	}
	if d.sync != nil {
		if err := d.sync.Sync(); err != nil {
			d.werr = fmt.Errorf("logdb: sync: %w", err)
			return d.werr
		}
	}
	return nil
}

// Err returns the sticky write error, if any.
func (d *DB) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.werr
}

// Len returns the number of appended records.
func (d *DB) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Close flushes and closes the underlying file, if any. The file is closed
// even when the flush fails, and both errors are propagated along with any
// earlier sticky write error: a close error after a clean flush can still
// mean the kernel failed to persist buffered writes, so swallowing either
// would hide a truncated log.
func (d *DB) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ferr, cerr error
	if d.werr == nil {
		if err := d.w.Flush(); err != nil {
			ferr = fmt.Errorf("logdb: flush: %w", err)
		}
	}
	if d.closer != nil {
		if err := d.closer.Close(); err != nil {
			cerr = fmt.Errorf("logdb: close: %w", err)
		}
	}
	return errors.Join(d.werr, ferr, cerr)
}

// read is the one log parser. A malformed line is held back as torn until
// the input ends: if it was the last non-empty line it is a crash
// mid-append and reported through torn; any later non-empty line makes it
// corruption and a hard error.
func read(r io.Reader) (recs []Record, torn, err error) {
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
		var rec Record
		if uerr := json.Unmarshal(sc.Bytes(), &rec); uerr != nil {
			torn = fmt.Errorf("logdb: line %d: %w", line, uerr)
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("logdb: %w", err)
	}
	return recs, torn, nil
}

func load(path string) (recs []Record, torn, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("logdb: %w", err)
	}
	defer f.Close()
	return read(f)
}

// strict refuses a torn final line with the error naming it.
func strict(recs []Record, torn, err error) ([]Record, error) {
	if err == nil {
		err = torn
	}
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// tolerant drops a torn final line and counts it.
func tolerant(recs []Record, torn, err error) ([]Record, int, error) {
	if err != nil {
		return nil, 0, err
	}
	if torn != nil {
		return recs, 1, nil
	}
	return recs, 0, nil
}

// Read decodes records from a reader. A malformed line, including a torn
// final one, is an error naming the line.
func Read(r io.Reader) ([]Record, error) { return strict(read(r)) }

// Load reads all records from a log file via Read.
func Load(path string) ([]Record, error) { return strict(load(path)) }

// ReadTolerant decodes records like Read but tolerates a torn final line
// (a crash or kill mid-append): the torn line is dropped and counted instead
// of failing the whole load, so offline analysis can still see the rest of
// the log while warning about the truncation. Malformed lines before the
// final one remain hard errors — those mean corruption, not truncation.
func ReadTolerant(r io.Reader) (recs []Record, torn int, err error) {
	return tolerant(read(r))
}

// LoadTolerant reads a log file via ReadTolerant.
func LoadTolerant(path string) ([]Record, int, error) { return tolerant(load(path)) }
