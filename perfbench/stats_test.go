package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 0.9, want: 90, ok: true},    // exactly ten beyond
		{n: 99, p: 0.9, want: 90, ok: false},    // nine beyond
		{n: 1000, p: 0.99, want: 990, ok: true}, // ten beyond
		{n: 999, p: 0.99, want: 990, ok: false},
		{n: 1, p: 0.5, want: 1, ok: true}, // a median needs one sample
		{n: 0, p: 0.5, want: 0, ok: false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestNeededMatchesPercentile(t *testing.T) {
	for _, p := range []float64{0.9, 0.99} {
		n := needed(p)
		if _, ok := percentile(seq(n), p); !ok {
			t.Errorf("p=%v: %d samples should be enough", p, n)
		}
		if _, ok := percentile(seq(n-1), p); ok {
			t.Errorf("p=%v: %d samples should not be enough", p, n-1)
		}
		if !series(seq(n)).enough(p) || series(seq(n-1)).enough(p) {
			t.Errorf("p=%v: enough disagrees with needed=%d", p, n)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
