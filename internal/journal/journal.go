// Package journal is the crash-safety spine of a validation campaign: a
// write-ahead journal of per-program completions, the substrate behind
// scamv -checkpoint/-resume and the durability contract the distributed
// scamv-d workers will inherit.
//
// Each campaign directory holds one artifact, journal.jsonl: a header line,
// then one fsynced JSON line per completed program, appended by the
// engines' in-order merge step, so the journal always holds a contiguous
// prefix [0, N) of the campaign. A record and its newline go out in one
// write, so a crash mid-append leaves at most one trailing line without its
// newline; the resume loader drops that line, even when it happens to parse,
// and truncates it away before appending resumes. Creating the journal
// fsyncs the campaign directory and its parent, so the file's directory
// entry is as durable as the records in it.
//
// Resume correctness rests on two properties the engines guarantee: results
// merge in strict ascending program order (so the journal is a prefix, and
// skipping its records is exactly "skip the first N programs"), and every
// per-program random stream is derived deterministically from the campaign
// seed (so the remaining programs reproduce bit-for-bit). See DESIGN.md §15
// for the full argument.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// FS is the write-side filesystem seam of a campaign journal. Production
// code uses OSFS; internal/faultinject wraps it to inject ENOSPC, short
// writes and fsync failures, which is how the recovery paths get teeth
// tests instead of trust.
//
// Reads are deliberately not part of the seam: recovery reads whole files
// through the os package, because a fault during recovery is
// indistinguishable from real corruption and is surfaced the same way.
type FS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory so a newly created entry survives a crash.
	SyncDir(dir string) error
}

// File is the writable-file surface the journal needs: sequential writes,
// fsync, close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements FS. Filesystems that cannot sync directories report
// EINVAL; like logdb, that is treated as the platform's ceiling, not an
// error.
func (OSFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// Version is the journal format version stamped on the header. Resume
// reads only this version: v1 records carried a flat per-field program
// tally, v2 records carry the campaign's own program result
// (ProgramRecord.Result). Directories written while checkpoint snapshots
// existed hold v2 journals too; the checkpoint*.json files beside them are
// ignored.
const Version = 2

const journalFile = "journal.jsonl"

// ProgramRecord is one journaled program completion. Result is the
// campaign's own per-program result, encoded as JSON: everything its merge
// step folds into the campaign Result. The journal does not look inside it.
type ProgramRecord struct {
	Kind   string          `json:"kind"` // "program"
	Prog   int             `json:"prog"`
	Result json.RawMessage `json:"result"`
}

// header is the journal's first line: the campaign identity and the
// configuration fingerprint resume validates against.
type header struct {
	V           int    `json:"v"`
	Kind        string `json:"kind"` // "header"
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
}

// Options configures Open.
type Options struct {
	// Resume loads existing campaign state instead of truncating it. With no
	// prior state on disk, a Resume open degrades to a fresh start, so one
	// flag serves first runs and re-runs alike.
	Resume bool
	// FS overrides the filesystem (nil = OSFS). The fault-injection seam.
	FS FS
}

// Campaign is one campaign's open journal. Append/Close are safe for
// concurrent use, though the engines call Append from the single in-order
// merge goroutine. Write errors are sticky, like logdb's: after a failed
// append every subsequent mutation returns the first error, so a
// half-written line is never spliced.
type Campaign struct {
	dir string
	fs  FS

	mu       sync.Mutex
	f        File
	hdr      header
	begun    bool
	restored []ProgramRecord
	next     int // next expected program index
	werr     error
}

// Sanitize maps a campaign name to a filesystem-safe directory component:
// every byte outside [A-Za-z0-9._-] becomes '_' (campaign names contain '/',
// e.g. "Mpart-.../refined").
func Sanitize(name string) string {
	if name == "" {
		return "campaign"
	}
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// Open prepares the journal for one campaign under dir (the directory given
// to -checkpoint/-resume; each campaign gets the subdirectory
// dir/Sanitize(name)). Without Options.Resume, or with no journal on disk
// to resume, it starts an empty journal, replacing any earlier one. With
// Options.Resume and a journal on disk, a torn trailing line is truncated
// away and Restored returns the recovered prefix once Begin has validated
// the fingerprint.
func Open(dir, name string, opts Options) (*Campaign, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	cdir := filepath.Join(dir, Sanitize(name))
	if err := fsys.MkdirAll(cdir); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	c := &Campaign{dir: cdir, fs: fsys}
	if opts.Resume {
		resumed, err := c.recover()
		if err != nil {
			return nil, err
		}
		if resumed {
			return c, nil
		}
	}
	if err := c.create(); err != nil {
		return nil, err
	}
	return c, nil
}

// create starts an empty journal, truncating any earlier one, and fsyncs
// the campaign directory and its parent: fsyncing the file alone does not
// make its directory entry, or a just-made campaign directory, survive a
// crash.
func (c *Campaign) create() error {
	f, err := c.fs.Create(filepath.Join(c.dir, journalFile))
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, dir := range []string{c.dir, filepath.Dir(c.dir)} {
		if err := c.fs.SyncDir(dir); err != nil {
			f.Close()
			return fmt.Errorf("journal: sync dir: %w", err)
		}
	}
	c.f = f
	return nil
}

// recover loads the journal for resume, truncates a torn tail and reopens
// the file for appending. It reports false, with no error, when there is no
// journal header to resume from.
func (c *Campaign) recover() (bool, error) {
	jPath := filepath.Join(c.dir, journalFile)
	hdr, recs, validLen, err := loadJournal(jPath)
	if err != nil || hdr == nil {
		return false, err
	}
	for i := range recs {
		if recs[i].Prog != i {
			return false, fmt.Errorf("journal: %s: non-contiguous program records (record %d has prog %d)", c.dir, i, recs[i].Prog)
		}
	}
	c.hdr = *hdr
	c.restored = recs
	c.next = len(recs)
	if st, err := os.Stat(jPath); err == nil && st.Size() > validLen {
		if err := c.fs.Truncate(jPath, validLen); err != nil {
			return false, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	f, err := c.fs.OpenAppend(jPath)
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	c.f = f
	return true, nil
}

// loadJournal reads the journal tolerantly: header line, then program
// records. A torn final line is dropped (validLen excludes it so the caller
// can truncate it away): one that is not valid JSON, or one that lacks its
// newline, which Append writes in the same write as the record, so such a
// record was never acknowledged. An invalid line before the end is hard
// corruption.
func loadJournal(path string) (hdr *header, recs []ProgramRecord, validLen int64, err error) {
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return nil, nil, 0, nil
		}
		return nil, nil, 0, fmt.Errorf("journal: %w", rerr)
	}
	off := int64(0)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		line := data
		terminated := nl >= 0
		if terminated {
			line = data[:nl]
			data = data[nl+1:]
		} else {
			data = nil
		}
		lineLen := int64(len(line))
		if terminated {
			lineLen++
		}
		if len(bytes.TrimSpace(line)) == 0 {
			off += lineLen
			continue
		}
		if !terminated || !json.Valid(line) {
			if len(data) == 0 {
				// Torn final line: a crash mid-append. Drop it.
				return hdr, recs, off, nil
			}
			return nil, nil, 0, fmt.Errorf("journal: %s: corrupt line at byte %d", path, off)
		}
		if hdr == nil {
			var h header
			if uerr := json.Unmarshal(line, &h); uerr != nil || h.Kind != "header" {
				return nil, nil, 0, fmt.Errorf("journal: %s: first line is not a journal header", path)
			}
			if h.V != Version {
				return nil, nil, 0, fmt.Errorf("journal: %s: format v%d, this build reads only v%d (rerun the campaign from scratch)", path, h.V, Version)
			}
			hdr = &h
		} else {
			var rec ProgramRecord
			if uerr := json.Unmarshal(line, &rec); uerr != nil || rec.Kind != "program" {
				return nil, nil, 0, fmt.Errorf("journal: %s: bad program record at byte %d", path, off)
			}
			recs = append(recs, rec)
		}
		off += lineLen
	}
	return hdr, recs, off, nil
}

// Begin stamps (fresh) or validates (resume) the campaign fingerprint — a
// canonical encoding of every configuration knob that influences campaign
// counts. A resume whose fingerprint differs from the journaled one is
// refused: silently mixing configurations would produce a Result no single
// configuration can reproduce.
func (c *Campaign) Begin(campaign, fingerprint string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.begun {
		return errors.New("journal: Begin called twice")
	}
	if c.hdr.Kind != "" {
		if c.hdr.Fingerprint != fingerprint {
			return fmt.Errorf("journal: resume fingerprint mismatch for campaign %q:\n  journal: %s\n  now:     %s\n(the resumed run must use the same seed, counts, model, platforms, and solver configuration)",
				campaign, c.hdr.Fingerprint, fingerprint)
		}
		c.begun = true
		return nil
	}
	c.hdr = header{V: Version, Kind: "header", Campaign: campaign, Fingerprint: fingerprint}
	b, err := json.Marshal(c.hdr)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := c.writeDurable(append(b, '\n')); err != nil {
		return err
	}
	c.begun = true
	return nil
}

// Restored returns the program results recovered by a Resume open, as the
// JSON Append was given them, in program order: result i is program i's, and
// together they are the contiguous prefix [0, len) of the campaign.
func (c *Campaign) Restored() []json.RawMessage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]json.RawMessage, len(c.restored))
	for i := range c.restored {
		out[i] = c.restored[i].Result
	}
	return out
}

// Dir returns the campaign's journal directory.
func (c *Campaign) Dir() string { return c.dir }

// writeDurable appends raw bytes to the journal and fsyncs them; after
// Close it returns an error naming the closed journal. Caller holds c.mu.
func (c *Campaign) writeDurable(b []byte) error {
	if c.werr != nil {
		return c.werr
	}
	if c.f == nil {
		return fmt.Errorf("journal: %s is closed", filepath.Join(c.dir, journalFile))
	}
	if _, err := c.f.Write(b); err != nil {
		c.werr = fmt.Errorf("journal: %w", err)
		return c.werr
	}
	if err := c.f.Sync(); err != nil {
		c.werr = fmt.Errorf("journal: sync: %w", err)
		return c.werr
	}
	return nil
}

// Append journals program prog's result, encoded as JSON. Programs must
// arrive in ascending order starting at the resume point — the engines'
// in-order merge guarantees it, and Append enforces it, because a gap would
// break the prefix property resume depends on. When it returns nil the
// record is fsynced.
func (c *Campaign) Append(prog int, result any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.begun {
		return errors.New("journal: Append before Begin")
	}
	if c.werr != nil {
		return c.werr
	}
	if prog != c.next {
		return fmt.Errorf("journal: out-of-order append: got program %d, want %d", prog, c.next)
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b, err := json.Marshal(&ProgramRecord{Kind: "program", Prog: prog, Result: raw})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := c.writeDurable(append(b, '\n')); err != nil {
		return err
	}
	c.next++
	return nil
}

// Close syncs and closes the journal file.
func (c *Campaign) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return c.werr
	}
	var serr error
	if c.werr == nil {
		if err := c.f.Sync(); err != nil {
			serr = fmt.Errorf("journal: sync: %w", err)
		}
	}
	cerr := c.f.Close()
	c.f = nil
	if cerr != nil {
		cerr = fmt.Errorf("journal: close: %w", cerr)
	}
	return errors.Join(c.werr, serr, cerr)
}
