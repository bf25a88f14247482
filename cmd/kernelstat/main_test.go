package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkKernel/ref/ab_9x160x32/dense-2         	    2000	      4000 ns/op
BenchmarkKernel/go/ab_9x160x32/dense-2          	    2000	      3000 ns/op
BenchmarkKernel/new/ab_9x160x32/dense-2         	    2000	      1000 ns/op
BenchmarkKernel/go/ab_9x160x32/dense-2          	    2000	      9000 ns/op
BenchmarkKernel/new/ab_9x160x32/dense-2         	    2000	       900 ns/op
BenchmarkKernel/go/ab_9x160x32/dense-2          	    2000	      2400 ns/op
BenchmarkKernel/new/ab_9x160x32/dense-2         	    2000	      4000 ns/op
BenchmarkAxpy/go/axpy/19844-2                   	    2000	      5000 ns/op	31748.96 MB/s
BenchmarkTranscendental/new/exp_10              	   20000	        55.4 ns/op
BenchmarkMatMul/64-2                            	     100	     90000 ns/op
PASS
`

func TestParseGroupsSidesPerCell(t *testing.T) {
	cells, failed, err := parse(strings.NewReader(sample), io.Discard)
	if err != nil || failed {
		t.Fatalf("parse: %v, failed %v", err, failed)
	}
	var names []string
	for _, c := range cells {
		names = append(names, c.name)
	}
	if got := strings.Join(names, " "); got != "Kernel/ab_9x160x32/dense Axpy/axpy/19844 Transcendental/exp_10" {
		t.Fatalf("cells %q", got)
	}
	if got := cells[0].samples["go"]; len(got) != 3 || got[1] != 9000 {
		t.Fatalf("go samples %v", got)
	}
	if got := cells[2].samples["new"]; len(got) != 1 || got[0] != 55.4 {
		t.Fatalf("exp_10 samples %v", got)
	}
}

func TestSummarizeMedianAndMin(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		median, min float64
	}{
		{[]float64{3000, 9000, 2400}, 3000, 2400},
		{[]float64{4, 1, 3, 2}, 2.5, 1},
		{[]float64{7}, 7, 7},
	} {
		if got := summarize(tc.in); got.median != tc.median || got.min != tc.min {
			t.Errorf("summarize(%v) = %+v, want median %v min %v", tc.in, got, tc.median, tc.min)
		}
	}
}

// TestReportReadsBothStatistics: a cell whose "new" median a slow sample
// moved still shows its gain on the minimums.
func TestReportReadsBothStatistics(t *testing.T) {
	cells, _, _ := parse(strings.NewReader(sample), io.Discard)
	var out strings.Builder
	report(&out, cells)
	lines := strings.Split(out.String(), "\n")
	var row string
	for _, l := range lines {
		if strings.HasPrefix(l, "Kernel/ab_9x160x32/dense") {
			row = l
		}
	}
	for _, want := range []string{"4000/4000", "3000/2400", "1000/900", "3.00/2.67×"} {
		if !strings.Contains(row, want) {
			t.Errorf("row %q lacks %q", row, want)
		}
	}
}

func TestParseReportsFailure(t *testing.T) {
	_, failed, _ := parse(strings.NewReader("--- FAIL: TestX\nFAIL\tacme/internal/tensor\n"), io.Discard)
	if !failed {
		t.Fatal("a FAIL line was not reported")
	}
}
