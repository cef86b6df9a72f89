package logdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestAppendAndRead(t *testing.T) {
	var buf bytes.Buffer
	db := NewWriter(&buf)
	recs := []Record{
		{Experiment: "e1", Program: "p0", TestIndex: 0, Verdict: "counterexample", GenMicros: 12, ExeMicros: 34},
		{Experiment: "e1", Program: "p0", TestIndex: 1, Verdict: "indistinguishable"},
		{Experiment: "e1", Program: "p1", TestIndex: 0, PathA: 1, PathB: 1, Class: 61, Verdict: "inconclusive"},
	}
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Read[Record](&buf, nil)
	if err != nil || torn != nil {
		t.Fatal(err, torn)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	db, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(Record{Experiment: "x", Verdict: "counterexample"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := Load[Record](path, nil)
	if err != nil || torn != nil {
		t.Fatal(err, torn)
	}
	if len(recs) != 1 || recs[0].Experiment != "x" {
		t.Fatalf("loaded: %+v", recs)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Load[Record](filepath.Join(t.TempDir(), "absent.jsonl"), nil); err == nil {
		t.Fatal("expected error")
	}
}

// TestRead pins the one torn-tail rule every JSON-lines file here is read
// by: blank lines are skipped; a malformed last non-empty line (a crash
// mid-append, with or without its newline) comes back as torn, naming the
// line, along with the records before it; a malformed line anywhere else is
// corruption and a hard error; a check error is always a hard error; and no
// line may exceed 16 MiB.
func TestRead(t *testing.T) {
	good := `{"experiment":"a","verdict":"counterexample"}
{"experiment":"b","verdict":"indistinguishable"}
`
	// rejectBad is a per-record check in the style of telemetry.CheckRecord.
	rejectBad := func(r *Record) error {
		if r.Experiment == "bad" {
			return errors.New("bad experiment")
		}
		return nil
	}
	long := fmt.Sprintf(`{"experiment":%q}`, strings.Repeat("x", 100<<10))
	cases := []struct {
		name     string
		input    string
		check    bool
		wantRecs int
		wantTorn string // substring of the torn error; "" = not torn
		wantErr  string // substring of the hard error; "" = none
	}{
		{"clean", good, false, 2, "", ""},
		{"empty", "", false, 0, "", ""},
		{"blank lines are skipped", "\n\n" + good + "\n\n", false, 2, "", ""},
		{"bad final line is torn", `{"experiment":"a"}` + "\nnot json\n", false, 1, "line 2", ""},
		{"partial final line is torn", good + `{"experiment":"torn","verdict":"inco`, false, 2, "line 3", ""},
		{"torn final after newline gap", good + "\n" + `{"experi`, false, 2, "line 4", ""},
		{"only a torn line", `{"experi`, false, 0, "line 1", ""},
		{"mid-file corruption is fatal", `{"experiment":"a` + "\n" + good, false, 0, "", "line 1"},
		{"check passes", good, true, 2, "", ""},
		{"check error on the final line is fatal", good + `{"experiment":"bad"}`, true, 0, "", "line 3: bad experiment"},
		{"check error before a torn line is fatal", `{"experiment":"bad"}` + "\n" + `{"exp`, true, 0, "", "line 1: bad experiment"},
		{"line beyond the scanner's first buffer", long + "\n", false, 1, "", ""},
		{"line over 16 MiB is fatal", `{"experiment":"` + strings.Repeat("x", 16<<20) + `"}`, false, 0, "", "too long"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var check func(*Record) error
			if tc.check {
				check = rejectBad
			}
			recs, torn, err := Read(strings.NewReader(tc.input), check)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				if recs != nil || torn != nil {
					t.Errorf("a hard error returned %d records and torn %v", len(recs), torn)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.wantRecs {
				t.Errorf("recs = %d, want %d", len(recs), tc.wantRecs)
			}
			switch {
			case tc.wantTorn == "" && torn != nil:
				t.Errorf("unexpected torn line: %v", torn)
			case tc.wantTorn != "" && (torn == nil || !strings.Contains(torn.Error(), tc.wantTorn)):
				t.Errorf("torn = %v, want %q", torn, tc.wantTorn)
			}
		})
	}
}

func TestReadRejectsPartialFinalLine(t *testing.T) {
	// A crash mid-append leaves a final line without its newline; the
	// truncated JSON must come back as torn, naming the line (a strict
	// caller refuses it), never silently dropped or misparsed.
	var buf bytes.Buffer
	db := NewWriter(&buf)
	if err := db.Append(Record{Experiment: "ok", Verdict: "counterexample"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	partial := full + `{"experiment":"torn","verdict":"inco`
	recs, torn, err := Read[Record](strings.NewReader(partial), nil)
	if err != nil {
		t.Fatal(err)
	}
	if torn == nil {
		t.Fatal("partially-written final line must be reported as torn")
	} else if !strings.Contains(torn.Error(), "line 2") {
		t.Errorf("torn error should name the torn line: %v", torn)
	}
	if len(recs) != 1 || recs[0].Experiment != "ok" {
		t.Errorf("records before the torn line: %+v", recs)
	}
	// The intact prefix alone still reads back clean.
	recs, torn, err = Read[Record](strings.NewReader(full), nil)
	if err != nil || torn != nil || len(recs) != 1 {
		t.Fatalf("intact log: %v, torn %v, %d records", err, torn, len(recs))
	}
}

// errCloser counts Close calls and fails them.
type errCloser struct{ closed int }

func (c *errCloser) Close() error {
	c.closed++
	return errors.New("close failed")
}

// errWriter fails every write, so the bufio flush fails.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestClosePropagatesCloseError(t *testing.T) {
	// A clean flush must not swallow the underlying file's close error.
	c := &errCloser{}
	db := &Writer{bw: bufio.NewWriter(&bytes.Buffer{}), closer: c}
	if err := db.Append(Record{Experiment: "x"}); err != nil {
		t.Fatal(err)
	}
	err := db.Close()
	if err == nil || !strings.Contains(err.Error(), "close failed") {
		t.Fatalf("close error not propagated: %v", err)
	}
	if c.closed != 1 {
		t.Fatalf("closer called %d times", c.closed)
	}
}

func TestClosePropagatesBothErrors(t *testing.T) {
	// A failing flush must still close the file, and both errors surface.
	c := &errCloser{}
	db := &Writer{bw: bufio.NewWriter(errWriter{}), closer: c}
	if err := db.Append(Record{Experiment: "x"}); err != nil {
		t.Fatal(err)
	}
	err := db.Close()
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{"disk full", "close failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if c.closed != 1 {
		t.Fatalf("file leaked: closer called %d times", c.closed)
	}
}

// TestAppendAfterCloseIsError: an Append after Close must fail naming the
// closed file, not report success and lose the record.
func TestAppendAfterCloseIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	db, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(Record{Experiment: "kept"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	err = db.Append(Record{Experiment: "late"})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("append after close: err = %v, want an error naming %s", err, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "late") || !strings.Contains(string(data), "kept") {
		t.Fatalf("file after close: %q", data)
	}
}

func TestConcurrentAppend(t *testing.T) {
	var buf bytes.Buffer
	db := NewWriter(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = db.Append(Record{Experiment: "c", TestIndex: n*100 + j})
			}
		}(i)
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err := Read[Record](&buf, nil)
	if err != nil || torn != nil {
		t.Fatal(err, torn)
	}
	if len(recs) != 400 {
		t.Fatalf("records: %d", len(recs))
	}
}
