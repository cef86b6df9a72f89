package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
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
		if _, err := c.Append(p, rec(p)); err != nil {
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
	if _, err := r.Append(4, rec(4)); err == nil {
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
	c := mustOpen(t, dir, Options{Every: -1})
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

	r := mustOpen(t, dir, Options{Resume: true, Every: -1})
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

func TestJournalMidFileCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{Every: -1})
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
	if _, err := Open(dir, "camp/one", Options{Resume: true, Every: -1}); err == nil {
		t.Fatal("mid-file corruption accepted silently")
	}
}

func TestCheckpointRotationAndFallback(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{Every: 2})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 6) // checkpoints at 2, 4, 6
	if got := c.Checkpoints(); got != 3 {
		t.Fatalf("checkpoints = %d, want 3", got)
	}
	c.Close()
	cdir := filepath.Join(dir, Sanitize("camp/one"))
	for _, name := range []string{"checkpoint.json", "checkpoint.prev.json"} {
		if _, err := os.Stat(filepath.Join(cdir, name)); err != nil {
			t.Fatalf("%s missing after rotation: %v", name, err)
		}
	}

	// Tear the primary checkpoint (truncate to half) and delete the journal:
	// recovery must detect the tear and fall back to checkpoint.prev.json.
	primary := filepath.Join(cdir, "checkpoint.json")
	data, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(primary, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(cdir, "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{Resume: true})
	if err := r.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	// prev covers programs [0,4): the torn primary (6) must not be trusted.
	if n := len(r.Restored()); n != 4 {
		t.Fatalf("restored %d from fallback, want 4 (prev checkpoint)", n)
	}
	// And the journal was rewritten from the checkpoint, so a further resume
	// sees the same prefix even without checkpoints.
	r.Close()
	os.Remove(filepath.Join(cdir, "checkpoint.json"))
	os.Remove(filepath.Join(cdir, "checkpoint.prev.json"))
	r2 := mustOpen(t, dir, Options{Resume: true})
	if n := len(r2.Restored()); n != 4 {
		t.Fatalf("rewritten journal restored %d, want 4", n)
	}
	r2.Close()
}

func TestCheckpointAheadOfJournalWins(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{Every: 1})
	if err := c.Begin("camp/one", "fp"); err != nil {
		t.Fatal(err)
	}
	appendN(t, c, 0, 3)
	c.Close()
	// Truncate the journal down to the header + 1 record; the checkpoint
	// still covers 3. Recovery takes the longer prefix.
	cdir := filepath.Join(dir, Sanitize("camp/one"))
	jPath := filepath.Join(cdir, "journal.jsonl")
	data, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(jPath, []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{Resume: true})
	if n := len(r.Restored()); n != 3 {
		t.Fatalf("restored %d, want 3 (checkpoint ahead of journal)", n)
	}
	r.Close()
}

func TestFreshOpenDiscardsStaleState(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{Every: 1})
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

// TestResumeRefusesV1: a v1 journal or checkpoint (flat per-field program
// records) is refused on resume with an error naming its version, not
// decoded into the v2 record shape or skipped as torn.
func TestResumeRefusesV1(t *testing.T) {
	const (
		hdr    = `{"v":1,"kind":"header","campaign":"camp/one","fingerprint":"fp"}`
		record = `{"kind":"program","prog":0,"experiments":5,"first_ce_test":-1}`
	)
	for _, tc := range []struct{ file, content string }{
		{"journal.jsonl", hdr + "\n" + record + "\n"},
		{"checkpoint.json", `{"v":1,"campaign":"camp/one","fingerprint":"fp","programs":[` + record + `],"complete":true}`},
	} {
		t.Run(tc.file, func(t *testing.T) {
			dir := t.TempDir()
			cdir := filepath.Join(dir, Sanitize("camp/one"))
			if err := os.MkdirAll(cdir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, tc.file), []byte(tc.content), 0o644); err != nil {
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
