package scamv

import (
	"context"
	"fmt"

	"scamv/internal/obs"
)

// This file implements the automatic model repair the paper proposes as
// future work (§8): "refine unsound observation models to automatically
// restore their soundness, e.g., by adding state observations".
//
// The repair searches the M_specK family (obs.MCt with BaseSpecLoads = K):
// K = 0 is plain M_ct, K = 1 is M_spec1, and so on. Starting from the model
// under repair, each round validates M_specK against the refinement M_spec
// on the simulated hardware; when counterexamples surface, the
// distinguishing observations — the transient loads beyond the first K —
// are promoted into the model (K is incremented) and validation repeats.
// The loop stops at the first K with no counterexamples: the coarsest model
// of the family that testing cannot invalidate.

// RepairStep records one round of the repair loop.
type RepairStep struct {
	// K is the number of transient loads the candidate model observes.
	K int
	// Model is the candidate's name.
	Model string
	// Result is the validation campaign outcome for this candidate.
	Result *Result
}

// RepairReport is the outcome of RepairModel.
type RepairReport struct {
	Steps []RepairStep
	// FinalK is the repaired model's K.
	FinalK int
	// Validated is true when the final candidate produced no
	// counterexamples. Because validation is testing, this is evidence of
	// soundness, not proof (§6.2).
	Validated bool
}

// String renders the repair trace.
func (r *RepairReport) String() string {
	out := ""
	for _, s := range r.Steps {
		out += fmt.Sprintf("K=%d (%s): %d experiments, %d counterexamples\n",
			s.K, s.Model, s.Result.Experiments, s.Result.Counterexamples)
	}
	if r.Validated {
		out += fmt.Sprintf("repaired: Mspec%d is consistent with the hardware\n", r.FinalK)
	} else {
		out += "repair failed: counterexamples remain at the speculation-window bound\n"
	}
	return out
}

// RepairModel runs the repair loop over the M_specK family. base supplies
// the campaign parameters (template, program counts, seed, core); its Model
// and Refined fields are overridden per candidate. maxK bounds the search
// (0 means the speculation window's worth of loads, 8).
func RepairModel(base Experiment, maxK int) (*RepairReport, error) {
	return RepairModelContext(context.Background(), base, maxK)
}

// RepairModelContext is RepairModel under a context. Each validation round
// is a full campaign (RunContext), so cancellation propagates to every
// program of the round in flight.
func RepairModelContext(ctx context.Context, base Experiment, maxK int) (*RepairReport, error) {
	if maxK <= 0 {
		maxK = 8
	}
	report := &RepairReport{}
	for k := 0; k <= maxK; k++ {
		e := base
		e.Model = &obs.MCt{
			Geom:          obs.DefaultGeometry,
			Spec:          obs.SpecAll,
			BaseSpecLoads: k,
		}
		e.Refined = true
		e.Speculative = true
		if e.Name == "" {
			e.Name = "repair"
		}
		e.Name = fmt.Sprintf("%s/K=%d", base.Name, k)
		res, err := RunContext(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("scamv: repair round K=%d: %w", k, err)
		}
		report.Steps = append(report.Steps, RepairStep{K: k, Model: e.Model.Name(), Result: res})
		report.FinalK = k
		if res.Counterexamples == 0 {
			report.Validated = true
			return report, nil
		}
	}
	return report, nil
}
