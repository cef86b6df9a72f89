package scamv

import (
	"strings"
	"testing"
	"time"

	"scamv/internal/gen"
	"scamv/internal/micro"
)

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{500 * time.Microsecond, "500µs"},
		{2500 * time.Microsecond, "2.5ms"},
		{3 * time.Second, "3.00s"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestResultAverages(t *testing.T) {
	r := &Result{Experiments: 4, GenTime: 8 * time.Millisecond, ExeTime: 2 * time.Millisecond}
	if r.AvgGen() != 2*time.Millisecond || r.AvgExe() != 500*time.Microsecond {
		t.Errorf("averages: %v %v", r.AvgGen(), r.AvgExe())
	}
	empty := &Result{}
	if empty.AvgGen() != 0 || empty.AvgExe() != 0 {
		t.Error("zero experiments must not divide by zero")
	}
}

func TestPresetNames(t *testing.T) {
	u, r := MPartExperiments(false, 1, 1, 1)
	if u.Name != "Mpart/unguided" || r.Name != "Mpart/refined" {
		t.Errorf("mpart names: %q %q", u.Name, r.Name)
	}
	u, r = MPartExperiments(true, 1, 1, 1)
	if !strings.Contains(u.Name, "page-aligned") {
		t.Errorf("page-aligned name: %q", u.Name)
	}
	u, r = MCtExperiments(gen.TemplateA{}, 1, 1, 1)
	if u.Name != "Mct-tplA/unguided" || r.Name != "Mct-tplA/refined" {
		t.Errorf("mct names: %q %q", u.Name, r.Name)
	}
	if e := MSpec1Experiment(gen.TemplateB{}, 1, 1, 1); e.Name != "Mspec1-tplB/refined" {
		t.Errorf("mspec1 name: %q", e.Name)
	}
	if e := StraightLineExperiment(1, 1, 1); !strings.Contains(e.Name, "Mspec'") {
		t.Errorf("straight-line name: %q", e.Name)
	}
}

func TestPresetViews(t *testing.T) {
	// The M_part attacker only sees its partition; the M_ct attacker sees
	// everything.
	_, r := MPartExperiments(false, 1, 1, 1)
	if r.AttackerView(60) || !r.AttackerView(61) || !r.AttackerView(127) {
		t.Error("mpart attacker view must be the AR partition")
	}
	_, rc := MCtExperiments(gen.TemplateA{}, 1, 1, 1)
	e := rc.WithDefaults()
	if !e.AttackerView(0) || !e.AttackerView(127) {
		t.Error("mct attacker view must be the full cache")
	}
}

func TestPresetMicroSettings(t *testing.T) {
	_, r := MTimeExperiments(1, 1, 1)
	if !r.Micro.VarTimeMul || !r.TimingAttacker {
		t.Error("mtime preset must enable the timing channel")
	}
	if r.Micro.NoiseProb != 0 {
		t.Error("timing campaigns must run without fill noise")
	}
	_, rp := MPartExperiments(false, 1, 1, 1)
	if rp.Micro.NoiseProb == 0 {
		t.Error("mpart campaigns model measurement noise")
	}
	if rp.Micro.Sets != micro.DefaultConfig().Sets {
		t.Error("presets use the default A53 geometry")
	}
}

func TestRepairReportString(t *testing.T) {
	rep := &RepairReport{
		Steps: []RepairStep{
			{K: 0, Model: "Mct+Mspec", Result: &Result{Experiments: 10, Counterexamples: 5}},
			{K: 1, Model: "Mspec1+Mspec", Result: &Result{Experiments: 10}},
		},
		FinalK:    1,
		Validated: true,
	}
	out := rep.String()
	for _, want := range []string{"K=0", "K=1", "repaired: Mspec1"} {
		if !strings.Contains(out, want) {
			t.Errorf("repair report missing %q:\n%s", want, out)
		}
	}
	rep.Validated = false
	if !strings.Contains(rep.String(), "repair failed") {
		t.Error("failed repair must say so")
	}
}
