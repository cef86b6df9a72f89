package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scamv/internal/logdb"
)

// result stands in for the campaign's per-program result: the journal
// stores whatever Append is given, as JSON.
type result struct {
	Experiments int            `json:"experiments"`
	Queries     int            `json:"queries"`
	Logs        []logdb.Record `json:"logs"`
}

func rec(p int) result {
	return result{
		Experiments: 10 + p,
		Queries:     3 * p,
		Logs:        []logdb.Record{{Experiment: "e", Program: "prog", TestIndex: p, Verdict: "indistinguishable"}},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Campaign {
	t.Helper()
	c, err := Open(dir, "camp/one", opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func appendN(t *testing.T, c *Campaign, from, to int) {
	t.Helper()
	for p := from; p < to; p++ {
		if err := c.Append(p, rec(p)); err != nil {
			t.Fatalf("append %d: %v", p, err)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp1"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{Resume: true})
	if err := r.Begin("camp/one", "fp1"); err != nil {
		t.Fatal(err)
	}
	got := r.Restored()
	if len(got) != 5 {
		t.Fatalf("restored %d records, want 5", len(got))
	}
	for i, raw := range got {
		var g result
		if err := json.Unmarshal(raw, &g); err != nil {
			t.Fatal(err)
		}
		want := rec(i)
		if g.Experiments != want.Experiments || g.Queries != want.Queries ||
			len(g.Logs) != 1 || g.Logs[0].TestIndex != i {
			t.Fatalf("record %d round-tripped wrong: %s", i, raw)
		}
	}
	// Appending must continue from the restored prefix.
	if err := r.Append(4, rec(4)); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	appendN(t, r, 5, 7)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir, Options{Resume: true})
	if n := len(r2.Restored()); n != 7 {
		t.Fatalf("after second run restored %d, want 7", n)
	}
	r2.Close()
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 3)
	c.Close()

	jPath := filepath.Join(dir, Sanitize("camp/one"), "journal.jsonl")
	f, err := os.OpenFile(jPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: half a record, no newline.
	if _, err := f.WriteString(`{"kind":"program","prog":3,"exp`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := mustOpen(t, dir, Options{Resume: true})
	if err := r.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Restored()); n != 3 {
		t.Fatalf("restored %d, want 3 (torn line dropped)", n)
	}
	// The torn tail must be gone so the next append starts a clean line.
	appendN(t, r, 3, 4)
	r.Close()
	r2 := mustOpen(t, dir, Options{Resume: true})
	if n := len(r2.Restored()); n != 4 {
		t.Fatalf("after repair restored %d, want 4", n)
	}
	r2.Close()
}

// TestJournalUnterminatedRecordDropped: Append writes a record and its
// newline in one write, so a final line without its newline was never
// acknowledged, even when it parses as JSON. Resume drops it and truncates
// it away; otherwise the next append would splice onto it and the following
// resume would find a corrupt line mid-file.
func TestJournalUnterminatedRecordDropped(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 3)
	c.Close()

	jPath := filepath.Join(dir, Sanitize("camp/one"), "journal.jsonl")
	st, err := os.Stat(jPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jPath, st.Size()-1); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{Resume: true})
	if err := r.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	n := len(r.Restored())
	if n != 2 {
		t.Fatalf("restored %d, want 2 (unterminated record dropped)", n)
	}
	appendN(t, r, n, 5)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, "camp/one", Options{Resume: true})
	if err != nil {
		t.Fatalf("resume after appending past the dropped record: %v", err)
	}
	if n := len(r2.Restored()); n != 5 {
		t.Fatalf("restored %d, want 5", n)
	}
	r2.Close()
}

func TestJournalFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp-a"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 1)
	c.Close()
	r := mustOpen(t, dir, Options{Resume: true})
	err := r.Begin("camp/one", "fp-b")
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("want fingerprint mismatch error, got %v", err)
	}
	r.Close()
}

// TestWriteAfterCloseIsError pins that a closed journal refuses Append and
// Begin with an error naming the journal instead of writing through the
// closed file.
func TestWriteAfterCloseIsError(t *testing.T) {
	dir := t.TempDir()
	call := func(what string, f func() error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s after Close panicked: %v", what, r)
			}
		}()
		if err := f(); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Errorf("%s after Close = %v, want an error naming the journal closed", what, err)
		}
	}

	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	call("Append", func() error { return c.Append(2, rec(2)) })

	fresh := mustOpen(t, dir, Options{})
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	call("Begin", func() error { return fresh.Begin("camp/one", "fp") })
}

func TestJournalMidFileCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 3)
	c.Close()
	jPath := filepath.Join(dir, Sanitize("camp/one"), "journal.jsonl")
	data, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of the file: corruption, not truncation.
	mid := len(data) / 2
	data[mid], data[mid+1] = '\x00', '\x00'
	if err := os.WriteFile(jPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "camp/one", Options{Resume: true}); err == nil {
		t.Fatal("mid-file corruption accepted silently")
	}
}

func TestFreshOpenDiscardsStaleState(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 2)
	c.Close()
	// A fresh (non-resume) open of the same campaign truncates everything.
	f := mustOpen(t, dir, Options{})
	if err := f.Begin("camp/one", "fp2"); err != nil {
		t.Fatal(err)
	}
	if n := len(f.Restored()); n != 0 {
		t.Fatalf("fresh open restored %d records", n)
	}
	f.Close()
	r := mustOpen(t, dir, Options{Resume: true})
	if err := r.Begin("camp/one", "fp2"); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Restored()); n != 0 {
		t.Fatalf("stale state leaked into fresh run: %d records", n)
	}
	r.Close()
}

// syncRecorder is an OSFS that records the directories SyncDir was called on.
type syncRecorder struct {
	OSFS
	dirs []string
}

func (r *syncRecorder) SyncDir(dir string) error {
	r.dirs = append(r.dirs, dir)
	return r.OSFS.SyncDir(dir)
}

// TestCreateSyncsDirectories: creating a journal fsyncs the campaign
// directory and its parent, so the journal's directory entry survives a
// crash as its fsynced records do. The campaign directory then holds the
// journal alone.
func TestCreateSyncsDirectories(t *testing.T) {
	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		rfs := &syncRecorder{}
		c := mustOpen(t, dir, Options{Resume: resume, FS: rfs})
		if err := c.Begin("camp/one", "fp"); err != nil {
			t.Fatal(err)
		}
		appendN(t, c, 0, 2)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		cdir := filepath.Join(dir, Sanitize("camp/one"))
		if want := []string{cdir, dir}; !reflect.DeepEqual(rfs.dirs, want) {
			t.Errorf("resume=%v: SyncDir calls %q, want %q", resume, rfs.dirs, want)
		}
		ents, err := os.ReadDir(cdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != "journal.jsonl" {
			t.Errorf("resume=%v: campaign directory holds %v, want journal.jsonl alone", resume, ents)
		}
	}
}

// TestResumeIgnoresLeftoverCheckpoints: a v2 directory written while
// checkpoint snapshots existed resumes from its journal alone; a
// checkpoint.json beside it, even one claiming more programs, is ignored.
func TestResumeIgnoresLeftoverCheckpoints(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 2)
	c.Close()
	cdir := filepath.Join(dir, Sanitize("camp/one"))
	leftover := `{"v":2,"campaign":"camp/one","fingerprint":"fp","programs":[` +
		`{"kind":"program","prog":0,"result":{}},{"kind":"program","prog":1,"result":{}},` +
		`{"kind":"program","prog":2,"result":{}}],"complete":true}`
	for _, name := range []string{"checkpoint.json", "checkpoint.prev.json"} {
		if err := os.WriteFile(filepath.Join(cdir, name), []byte(leftover), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := mustOpen(t, dir, Options{Resume: true})
	if err := r.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Restored()); n != 2 {
		t.Fatalf("restored %d, want the journal's 2", n)
	}
	appendN(t, r, 2, 3)
	r.Close()
}

func TestResumeWithNoStateIsFresh(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir, Options{Resume: true})
	if err := r.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	if n := len(r.Restored()); n != 0 {
		t.Fatalf("restored %d from empty dir", n)
	}
	appendN(t, r, 0, 2)
	r.Close()
	r2 := mustOpen(t, dir, Options{Resume: true})
	if n := len(r2.Restored()); n != 2 {
		t.Fatalf("restored %d, want 2", n)
	}
	r2.Close()
}

// TestResumeRefusesV1: a v1 journal (flat per-field program records) is
// refused on resume with an error naming its version, not decoded into the
// v2 record shape or skipped as torn.
func TestResumeRefusesV1(t *testing.T) {
	const (
		hdr    = `{"v":1,"kind":"header","campaign":"camp/one","fingerprint":"fp"}`
		record = `{"kind":"program","prog":0,"experiments":5,"first_ce_test":-1}`
	)
	t.Run("journal.jsonl", func(t *testing.T) {
		dir := t.TempDir()
		cdir := filepath.Join(dir, Sanitize("camp/one"))
		if err := os.MkdirAll(cdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, "journal.jsonl"), []byte(hdr+"\n"+record+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, "camp/one", Options{Resume: true})
		if err == nil {
			c.Close()
			t.Fatal("v1 state accepted on resume")
		}
		if !strings.Contains(err.Error(), "format v1") {
			t.Fatalf("error does not name the version: %v", err)
		}
	})
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"Mpart (AR = sets 61..127)/refined": "Mpart__AR___sets_61..127__refined",
		"plain":                             "plain",
		"":                                  "campaign",
	} {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
