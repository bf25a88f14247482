// Command perfpairs runs the ten-pair protocol that a performance claim
// is judged by, and writes its table: the standing benchmark (bench/)
// built at a base revision and at the working tree, run in alternating
// pairs per workload, and for every end-to-end metric of BENCHMARK.json
// the per-pair values, both medians, the base's quartiles, how many pairs
// the change won and a verdict.
//
// A metric's verdict is "met" when the change is better in at least 9 of
// every 10 pairs (a tie counts for neither side) and the gap between the
// medians, in the better direction, exceeds the base's interquartile
// range. Pair k runs seed first+k; the base runs first in even pairs and
// second in odd ones. The tool refuses to report (exit 1, no file) when
// wire_bytes_per_device, loop_bytes_per_device_round or accuracy_final
// differ within any pair, or when a run is not correct: those are seeded
// and must not move.
//
// Both binaries are built under dir (git-ignored .perfpairs/), the base
// from `git archive BASE` in a tree deleted once it is built, with the
// Go build cache there too, so a run writes nothing else in the
// checkout and nothing outside it.
//
//	perfpairs -base HEAD~1                       all four workloads, 10 pairs, PERF.json
//	perfpairs -base c69b549 -workloads fleet-sampled -pairs 10 -first 11 -out PERF_36.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is an end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

// run is one benchmark run's last output line.
type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is one seed's two runs.
type pair struct {
	Seed      int64              `json:"seed"`
	BaseFirst bool               `json:"base_first"`
	Base      map[string]float64 `json:"base"`
	Change    map[string]float64 `json:"change"`
}

// verdict is one metric's row of the table.
type verdict struct {
	metricDef
	BaseMedian   float64 `json:"base_median"`
	ChangeMedian float64 `json:"change_median"`
	BaseQ1       float64 `json:"base_q1"`
	BaseQ3       float64 `json:"base_q3"`
	DeltaPct     float64 `json:"delta_pct"` // change vs base median, signed
	BetterIn     int     `json:"better_in"` // pairs the change won
	Of           int     `json:"of"`
	Met          bool    `json:"met"`
}

type workloadReport struct {
	Name     string    `json:"name"`
	Pairs    []pair    `json:"pairs"`
	Verdicts []verdict `json:"verdicts"`
}

type report struct {
	Base      string           `json:"base"`
	BaseRev   string           `json:"base_rev"`
	Change    string           `json:"change"`
	Rule      string           `json:"rule"`
	Workloads []workloadReport `json:"workloads"`
}

const rule = "met: the change is better in at least 9 of every 10 pairs (ties count for neither) and the median gap, in the better direction, exceeds the base's interquartile range"

// invariant lists the metrics that are seeded and may not differ
// within a pair.
var invariant = []string{"wire_bytes_per_device", "loop_bytes_per_device_round", "accuracy_final"}

func main() {
	base := flag.String("base", "", "revision to compare the working tree against (required)")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload of BENCHMARK.json)")
	pairs := flag.Int("pairs", 10, "alternating pairs per workload")
	first := flag.Int64("first", 11, "seed of the first pair; pair k runs seed first+k")
	out := flag.String("out", "PERF.json", "where to write the table")
	dir := flag.String("dir", ".perfpairs", "build directory (git-ignored)")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "perfpairs: -base is required and -pairs must be positive")
		os.Exit(2)
	}
	rep, err := runPairs(*base, *workloads, *pairs, *first, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfpairs:", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfpairs:", err)
		os.Exit(1)
	}
	printTable(os.Stdout, rep)
}

func runPairs(base, workloads string, pairs int, first int64, dir string) (*report, error) {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, w := range m.Workloads {
			names = append(names, w.Name)
		}
	}
	rev, err := git("rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return nil, err
	}
	head, err := git("rev-parse", "HEAD")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	baseBin, changeBin, err := build(dir, rev)
	if err != nil {
		return nil, err
	}
	rep := &report{Base: base, BaseRev: rev, Change: "working tree at " + head, Rule: rule}
	for _, w := range names {
		wr := workloadReport{Name: w}
		for k := range pairs {
			p := pair{Seed: first + int64(k), BaseFirst: k%2 == 0}
			sides := []*map[string]float64{&p.Base, &p.Change}
			bins := []string{baseBin, changeBin}
			if !p.BaseFirst {
				sides[0], sides[1] = sides[1], sides[0]
				bins[0], bins[1] = bins[1], bins[0]
			}
			for i, bin := range bins {
				r, err := bench(bin, w, p.Seed)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", w, p.Seed, err)
				}
				*sides[i] = values(r)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w, p.Seed)
			wr.Pairs = append(wr.Pairs, p)
		}
		if err := checkInvariants(wr.Pairs); err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		wr.Verdicts = judgeAll(m.EndToEnd, wr.Pairs)
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

func readManifest(path string) (*manifest, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// build extracts the base revision under dir and builds bench/ there
// and in the working tree, returning the two binaries. The extracted
// tree goes once the binaries are built; the build and module caches
// under dir stay for the next run.
func build(dir, rev string) (baseBin, changeBin string, err error) {
	tree := filepath.Join(dir, "base-"+rev[:12])
	if err := os.RemoveAll(tree); err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(tree, 0o755); err != nil {
		return "", "", err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(tree)) }()
	archive := exec.Command("git", "archive", rev)
	untar := exec.Command("tar", "-x", "-C", tree)
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", "", err
	}
	untar.Stderr, archive.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return "", "", err
	}
	if err := errors.Join(archive.Run(), untar.Wait()); err != nil {
		return "", "", fmt.Errorf("extract %s: %w", rev, err)
	}
	baseBin, changeBin = filepath.Join(dir, "acme-bench-base"), filepath.Join(dir, "acme-bench-change")
	for src, bin := range map[string]string{tree: baseBin, ".": changeBin} {
		cmd := exec.Command("go", "build", "-C", filepath.Join(src, "bench"), "-o", bin, ".")
		cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(dir, "go-cache"),
			"GOMODCACHE="+filepath.Join(dir, "go-mod"), "GOTOOLCHAIN=local")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return "", "", fmt.Errorf("build %s: %w", bin, err)
		}
	}
	return baseBin, changeBin, nil
}

// bench runs one workload once and parses its last line.
func bench(bin, workload string, seed int64) (run, error) {
	out, err := exec.Command(bin, "-workload", workload, "-trace", "0", "-seed", fmt.Sprint(seed)).Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r run
	if jerr := json.Unmarshal(lines[len(lines)-1], &r); jerr != nil {
		return run{}, errors.Join(err, jerr)
	}
	if !r.Correct {
		return r, fmt.Errorf("%s: not correct (%d of %d operations failed)", bin, r.Failed, r.Attempted)
	}
	return r, nil
}

func values(r run) map[string]float64 {
	v := make(map[string]float64, len(r.Metrics))
	for name, m := range r.Metrics {
		v[name] = m.Value
	}
	return v
}

// checkInvariants refuses a table in which a seeded metric differs
// between the two runs of a pair.
func checkInvariants(ps []pair) error {
	var bad []string
	for _, p := range ps {
		for _, name := range invariant {
			if p.Base[name] != p.Change[name] {
				bad = append(bad, fmt.Sprintf("seed %d %s %v vs %v", p.Seed, name, p.Base[name], p.Change[name]))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("seeded metrics differ, no verdict: %s", strings.Join(bad, "; "))
	}
	return nil
}

func judgeAll(defs []metricDef, ps []pair) []verdict {
	var vs []verdict
	for _, d := range defs {
		base, change := make([]float64, len(ps)), make([]float64, len(ps))
		for i, p := range ps {
			base[i], change[i] = p.Base[d.Name], p.Change[d.Name]
		}
		vs = append(vs, judge(d, base, change))
	}
	return vs
}

// judge applies the rule to one metric's pairs, base[i] against
// change[i].
func judge(d metricDef, base, change []float64) verdict {
	v := verdict{metricDef: d, Of: len(base)}
	sign := 1.0 // > 0: the change is better
	if d.Better == "higher" {
		sign = -1
	}
	for i := range base {
		if sign*(base[i]-change[i]) > 0 {
			v.BetterIn++
		}
	}
	v.BaseMedian, v.ChangeMedian = quantile(base, 0.5), quantile(change, 0.5)
	v.BaseQ1, v.BaseQ3 = quantile(base, 0.25), quantile(base, 0.75)
	if v.BaseMedian != 0 {
		v.DeltaPct = 100 * (v.ChangeMedian - v.BaseMedian) / math.Abs(v.BaseMedian)
	}
	gap := sign * (v.BaseMedian - v.ChangeMedian)
	v.Met = 10*v.BetterIn >= 9*v.Of && gap > v.BaseQ3-v.BaseQ1
	return v
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (R's type 7, numpy's default).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func printTable(w *os.File, rep *report) {
	fmt.Fprintf(w, "base %s (%s) vs %s\n", rep.Base, rep.BaseRev[:12], rep.Change)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s (%d pairs)\n", wr.Name, len(wr.Pairs))
		fmt.Fprintf(w, "| metric | base median [q1–q3] | change median | Δ | better in | verdict |\n|---|---|---|---|---|---|\n")
		for _, v := range wr.Verdicts {
			verdict := "not met"
			if v.Met {
				verdict = "met"
			}
			fmt.Fprintf(w, "| %s | %.6g [%.6g–%.6g] | %.6g | %+.1f %% | %d/%d | %s |\n",
				v.Name, v.BaseMedian, v.BaseQ1, v.BaseQ3, v.ChangeMedian, v.DeltaPct, v.BetterIn, v.Of, verdict)
		}
	}
}
