package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

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
		wantTorn int
		wantErr  string
	}{
		{"clean", good, 3, 0, ""},
		{"retired breaker record", good + breaker, 4, 0, ""},
		{"torn final line", good + `{"v":4,"kind":"verd`, 3, 1, ""},
		{"torn final after newline gap", good + "\n" + `{"v":4,"ki`, 3, 1, ""},
		{"mid-file corruption is fatal", `{"v":4,"kind":"camp` + "\n" + good, 0, 0, "line 1"},
		{"kindless final line is fatal", good + `{"v":4,"ts_us":3}`, 0, 0, "without kind"},
		{"newer schema is fatal", good + `{"v":99,"kind":"query","ts_us":3}`, 0, 0, "newer than supported"},
		{"empty", "", 0, 0, ""},
		{"only a torn line", `{"v":4,"ki`, 0, 1, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, torn, err := ReadTraceTolerant(strings.NewReader(tc.input))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.wantRecs || torn != tc.wantTorn {
				t.Errorf("recs=%d torn=%d, want %d/%d", len(recs), torn, tc.wantRecs, tc.wantTorn)
			}
		})
	}

	// The retired breaker record feeds no aggregate.
	recs, err := ReadTrace(strings.NewReader(breaker))
	if err != nil {
		t.Fatal(err)
	}
	if c := Replay(recs); !reflect.DeepEqual(c, Counters{}) {
		t.Errorf("replay of a breaker record = %+v, want all zero", c)
	}
}

func TestReadTraceStrictStillRejectsTorn(t *testing.T) {
	torn := `{"v":4,"kind":"campaign","ts_us":1,"name":"c","programs":1}
{"v":4,"kind":"verd`
	if _, err := ReadTrace(strings.NewReader(torn)); err == nil {
		t.Fatal("strict reader accepted a torn final line")
	}
}
