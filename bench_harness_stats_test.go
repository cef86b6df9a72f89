package scamv

import (
	"math"
	"testing"
)

func TestBenchSummarize(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		want benchStats
	}{
		{"empty", nil, benchStats{}},
		{"one", []float64{7}, benchStats{N: 1, Min: 7, Q1: 7, Median: 7, Q3: 7}},
		{"odd", []float64{3, 1, 2}, benchStats{N: 3, Min: 1, Q1: 1.5, Median: 2, Q3: 2.5}},
		{"even", []float64{4, 1, 3, 2}, benchStats{N: 4, Min: 1, Q1: 1.75, Median: 2.5, Q3: 3.25}},
		{"five", []float64{5, 4, 3, 2, 1}, benchStats{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4}},
		{"ties", []float64{2, 5, 2, 2}, benchStats{N: 4, Min: 2, Q1: 2, Median: 2, Q3: 2.75}},
	} {
		got := summarize(tc.xs)
		if got.N != tc.want.N || !near(got.Min, tc.want.Min) || !near(got.Q1, tc.want.Q1) ||
			!near(got.Median, tc.want.Median) || !near(got.Q3, tc.want.Q3) {
			t.Errorf("%s: summarize(%v) = %+v, want %+v", tc.name, tc.xs, got, tc.want)
		}
	}
}

func TestBenchCompareRounds(t *testing.T) {
	ones := []float64{1, 1, 1, 1, 1}
	for _, tc := range []struct {
		name     string
		num, den []float64
		n        int
		median   float64
		verdict  string
	}{
		{"met", []float64{1, 1.02, 1.04, 1.03, 0.98}, ones, 5, 1.02, "met"},
		{"met at the target", []float64{1.05, 1.05, 1.05, 1.05, 1.05}, ones, 5, 1.05, "met"},
		{"missed", []float64{1.1, 1.2, 1.07, 1.3, 1.08}, ones, 5, 1.1, "missed"},
		{"unresolved", []float64{0.9, 1.0, 1.1, 1.2, 0.95}, ones, 5, 1.0, "unresolved"},
		{"paired by round", []float64{2, 4, 6}, []float64{2, 4, 6}, 3, 1, "met"},
		{"zero denominator dropped", []float64{1, 2, 2.1}, []float64{0, 2, 2}, 2, 1.025, "met"},
		{"every denominator zero", []float64{1, 2}, []float64{0, 0}, 0, 0, "unresolved"},
	} {
		c := compareRounds(tc.name, tc.num, tc.den, 1.05)
		if c.Ratio.N != tc.n || !near(c.Ratio.Median, tc.median) || c.Verdict != tc.verdict {
			t.Errorf("%s: n %d median %v verdict %s, want n %d median %v verdict %s",
				tc.name, c.Ratio.N, c.Ratio.Median, c.Verdict, tc.n, tc.median, tc.verdict)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
