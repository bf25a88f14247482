// Command kernelstat summarizes `go test -bench` output whose benchmark
// names put a side first under the benchmark (`BenchmarkKernel/go/
// ab_9x160x32/dense`, `BenchmarkTranscendental/new/exp_10`): the sides
// of internal/tensor's kernel-bench. It copies its input to stdout as it
// reads it, then prints one row per cell with every side's median and
// minimum ns/op over the samples (-count) and the speed-ups go/new and
// avx2/new on both statistics, so a cell whose median a burst of stolen
// ticks moved can still be read by its minimum. It exits 1 when the
// input reports a failure, so a failing run fails the pipe.
//
//	go test -run '^$' -bench . -count 5 ./internal/tensor | go run ./cmd/kernelstat
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// sides are the kernel-bench sides in the order the table prints them.
var sides = []string{"ref", "go", "avx2", "new"}

// ratios are the speed-ups the table prints: the first side's time over
// the second's.
var ratios = [][2]string{{"go", "new"}, {"avx2", "new"}}

// cell is one benchmark shape: its samples per side.
type cell struct {
	name    string
	samples map[string][]float64
}

// stats is a side's median and minimum ns/op.
type stats struct{ median, min float64 }

func summarize(v []float64) stats {
	s := slices.Clone(v)
	slices.Sort(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + m) / 2
	}
	return stats{median: m, min: s[0]}
}

// parse reads benchmark lines, copying every line to echo, and returns
// the cells in first-seen order and whether a failure was reported.
func parse(r io.Reader, echo io.Writer) ([]*cell, bool, error) {
	var cells []*cell
	byName := map[string]*cell{}
	failed := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") || strings.HasPrefix(line, "panic:") {
			failed = true
		}
		name, side, ns, ok := parseLine(line)
		if !ok {
			continue
		}
		c := byName[name]
		if c == nil {
			c = &cell{name: name, samples: map[string][]float64{}}
			byName[name] = c
			cells = append(cells, c)
		}
		c.samples[side] = append(c.samples[side], ns)
	}
	return cells, failed, sc.Err()
}

// parseLine splits `BenchmarkKernel/go/ab_9x160x32/dense-2  2000  1234 ns/op`
// into the cell `Kernel/ab_9x160x32/dense`, the side `go` and 1234.
func parseLine(line string) (name, side string, ns float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", "", 0, false
	}
	unit := slices.Index(f, "ns/op")
	if unit < 1 {
		return "", "", 0, false
	}
	ns, err := strconv.ParseFloat(f[unit-1], 64)
	if err != nil {
		return "", "", 0, false
	}
	full := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(full, '-'); i > 0 {
		if _, err := strconv.Atoi(full[i+1:]); err == nil {
			full = full[:i] // the GOMAXPROCS suffix
		}
	}
	parts := strings.Split(full, "/")
	if len(parts) < 3 || !slices.Contains(sides, parts[1]) {
		return "", "", 0, false
	}
	return parts[0] + "/" + strings.Join(parts[2:], "/"), parts[1], ns, true
}

// report writes the table: per cell, each side's median/min ns/op, then
// each ratio on the medians and on the minimums.
func report(w io.Writer, cells []*cell) {
	if len(cells) == 0 {
		return
	}
	width := 0
	for _, c := range cells {
		width = max(width, len(c.name))
	}
	fmt.Fprintf(w, "\n%-*s", width, "cell (ns/op median/min)")
	for _, s := range sides {
		fmt.Fprintf(w, "  %17s", s)
	}
	for _, r := range ratios {
		fmt.Fprintf(w, "  %13s", r[0]+"/"+r[1])
	}
	fmt.Fprintln(w)
	for _, c := range cells {
		st := map[string]stats{}
		fmt.Fprintf(w, "%-*s", width, c.name)
		for _, s := range sides {
			v, ok := c.samples[s]
			if !ok {
				fmt.Fprintf(w, "  %17s", "-")
				continue
			}
			st[s] = summarize(v)
			fmt.Fprintf(w, "  %17s", fmt.Sprintf("%.0f/%.0f", st[s].median, st[s].min))
		}
		for _, r := range ratios {
			a, okA := st[r[0]]
			b, okB := st[r[1]]
			if !okA || !okB {
				fmt.Fprintf(w, "  %13s", "-")
				continue
			}
			fmt.Fprintf(w, "  %13s", fmt.Sprintf("%.2f/%.2f×", a.median/b.median, a.min/b.min))
		}
		fmt.Fprintln(w)
	}
}

func main() {
	cells, failed, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelstat:", err)
		os.Exit(1)
	}
	report(os.Stdout, cells)
	if failed {
		os.Exit(1)
	}
}
