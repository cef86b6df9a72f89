package telemetry

import (
	"reflect"
	"strings"
	"testing"

	"scamv/internal/logdb"
)

// TestReadTraceTolerant runs logdb's torn-tail rule (pinned by logdb's
// TestRead) with CheckRecord in place, as -report does: a torn line never
// reaches the check, while a kindless or newer-schema line is fatal even at
// the end of the file.
func TestReadTraceTolerant(t *testing.T) {
	// The third record carries the retired portfolio fields "winner" and
	// "shared_clauses" that v3–v5 traces could hold: it must still parse.
	good := `{"v":4,"kind":"campaign","ts_us":1,"name":"c","programs":2}
{"v":4,"kind":"query","ts_us":2,"status":"sat","dur_us":100}
{"v":5,"kind":"query","ts_us":3,"status":"unsat","dur_us":90,"winner":2,"shared_clauses":5}
`
	// A retired v5 circuit-breaker record must parse too.
	breaker := `{"v":5,"kind":"breaker","ts_us":4,"name":"sim","from":"closed","to":"open"}
`
	cases := []struct {
		name     string
		input    string
		wantRecs int
		wantTorn bool
		wantErr  string
	}{
		{"clean", good, 3, false, ""},
		{"retired breaker record", good + breaker, 4, false, ""},
		{"torn final line", good + `{"v":4,"kind":"verd`, 3, true, ""},
		{"torn final after newline gap", good + "\n" + `{"v":4,"ki`, 3, true, ""},
		{"mid-file corruption is fatal", `{"v":4,"kind":"camp` + "\n" + good, 0, false, "line 1"},
		{"kindless final line is fatal", good + `{"v":4,"ts_us":3}`, 0, false, "without kind"},
		{"newer schema is fatal", good + `{"v":99,"kind":"query","ts_us":3}`, 0, false, "newer than supported"},
		{"empty", "", 0, false, ""},
		{"only a torn line", `{"v":4,"ki`, 0, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, torn, err := logdb.Read(strings.NewReader(tc.input), CheckRecord)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.wantRecs || (torn != nil) != tc.wantTorn {
				t.Errorf("recs=%d torn=%v, want %d/%v", len(recs), torn, tc.wantRecs, tc.wantTorn)
			}
		})
	}

	// The retired breaker record feeds no aggregate.
	recs, torn, err := logdb.Read(strings.NewReader(breaker), CheckRecord)
	if err != nil || torn != nil {
		t.Fatal(err, torn)
	}
	if c := Replay(recs); !reflect.DeepEqual(c, Counters{}) {
		t.Errorf("replay of a breaker record = %+v, want all zero", c)
	}
}

// TestReadTraceStrictStillRejectsTorn: the torn final line that tolerant
// handling drops is still reported, so a strict caller (-report -strict)
// can refuse it.
func TestReadTraceStrictStillRejectsTorn(t *testing.T) {
	input := `{"v":4,"kind":"campaign","ts_us":1,"name":"c","programs":1}
{"v":4,"kind":"verd`
	recs, torn, err := logdb.Read(strings.NewReader(input), CheckRecord)
	if err != nil {
		t.Fatal(err)
	}
	if torn == nil || !strings.Contains(torn.Error(), "line 2") {
		t.Fatalf("torn final line not reported: torn = %v", torn)
	}
	if len(recs) != 1 {
		t.Errorf("records before the torn line: %d, want 1", len(recs))
	}
}
