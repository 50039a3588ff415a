package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runCompare implements `bench compare -old A.json -new B.json`: for every
// workload and end-to-end metric it reports improved, unchanged, worse or
// unresolved, with the bounds from BENCHMARK.json:
//
//   - worse: the new value is worse than the old by more than the bound;
//   - improved: there are at least ten sample pairs, the new side wins at
//     least 9 in 10 of them, and the values differ by more than the old
//     samples' interquartile range;
//   - unresolved: either side's samples spread wider than the bound, unless
//     every new sample is better (or, for worse, every new sample is worse)
//     than every old one;
//   - unchanged: otherwise.
//
// -old and -new each take a comma-separated list of reports. A side's
// value is the median of its reports' values; its samples are the reports'
// per-rep samples, in order, so that reports from alternating parent and
// change runs pair up rep by rep. The two-sided Mann–Whitney p-value is
// printed beside each verdict.
func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	oldPaths := fs.String("old", "", "comma-separated reports of the baseline")
	newPaths := fs.String("new", "", "comma-separated reports of the change")
	cfgPath := fs.String("config", "BENCHMARK.json", "benchmark definition holding each end-to-end metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPaths == "" || *newPaths == "" {
		return errors.New("need -old and -new reports")
	}
	defs, err := readBounds(*cfgPath)
	if err != nil {
		return err
	}
	olds, err := readReports(*oldPaths)
	if err != nil {
		return err
	}
	news, err := readReports(*newPaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-17s %12s %12s %8s %7s %7s %8s %7s  %s\n",
		"workload", "metric", "old", "new", "change", "spread", "wins", "U", "p", "verdict")
	for _, name := range workloadNames {
		for _, d := range defs {
			oldSamples, oldValue, ok1 := pool(olds, name, d.name)
			newSamples, newValue, ok2 := pool(news, name, d.name)
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "%-13s %-17s missing from a report\n", name, d.name)
				continue
			}
			c := compareSeries(oldSamples, newSamples, oldValue, newValue, d)
			fmt.Fprintf(w, "%-13s %-17s %12.6g %12.6g %+7.1f%% %6.1f%% %3d/%-3d %8.1f %7.4f  %s\n",
				name, d.name, oldValue, newValue, 100*c.change, 100*c.spread, c.wins, c.pairs, c.u, c.p, c.verdict)
		}
	}
	return nil
}

func readReports(paths string) ([]*report, error) {
	var out []*report
	for _, p := range strings.Split(paths, ",") {
		r, err := readReport(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// pool gathers one metric of one workload across reports: every per-rep
// sample in report order, and the median of the reports' values.
func pool(rs []*report, workload, metric string) (samples []float64, value float64, ok bool) {
	var values []float64
	for _, r := range rs {
		wr := r.Workloads[workload]
		if wr == nil || wr.E2E[metric] == nil || len(wr.E2E[metric].Values) == 0 {
			return nil, 0, false
		}
		samples = append(samples, wr.E2E[metric].Values...)
		values = append(values, wr.E2E[metric].Value)
	}
	return samples, median(values), true
}

// readBounds reads the end-to-end metric definitions from BENCHMARK.json.
func readBounds(path string) ([]metricDef, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := make([]metricDef, len(cfg.EndToEnd))
	for i, m := range cfg.EndToEnd {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better must be higher or lower, got %q", path, m.Name, m.Better)
		}
		defs[i] = metricDef{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound}
	}
	return defs, nil
}

type comparison struct {
	change      float64 // (new − old) / old, signed so that positive is better
	spread      float64 // the wider side's IQR as a share of its value
	wins, pairs int
	u, p        float64 // Mann–Whitney U of the new samples, two-sided p
	verdict     string
}

func compareSeries(old, new []float64, oldValue, newValue float64, d metricDef) comparison {
	sign := 1.0
	if d.better == "lower" {
		sign = -1
	}
	c := comparison{change: sign * (newValue - oldValue) / oldValue}
	iqr := quantile(old, 0.75) - quantile(old, 0.25)
	c.spread = max(iqr/oldValue, (quantile(new, 0.75)-quantile(new, 0.25))/newValue)
	for i := 0; i < min(len(old), len(new)); i++ {
		c.pairs++
		if sign*(new[i]-old[i]) > 0 {
			c.wins++
		}
	}
	c.u, c.p = mannWhitney(new, old)
	// Every new sample better (worse) than every old one: U of the better
	// side is n·m, with the direction folded in.
	nm := float64(len(old) * len(new))
	allBetter := (sign > 0 && c.u == nm) || (sign < 0 && c.u == 0)
	allWorse := (sign > 0 && c.u == 0) || (sign < 0 && c.u == nm)
	switch {
	case -c.change > d.bound:
		c.verdict = "worse"
		if c.spread > d.bound && !allWorse {
			c.verdict = "unresolved"
		}
	case c.change > 0 && c.pairs >= 10 && 10*c.wins >= 9*c.pairs && math.Abs(newValue-oldValue) > iqr:
		c.verdict = "improved"
	case c.spread > d.bound && !allBetter:
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// mannWhitney returns the Mann–Whitney U statistic of x against y — the
// number of pairs (x_i, y_j) with x_i > y_j, ties counting one half — and
// the two-sided p-value of the hypothesis that both come from one
// distribution. Ties get mid-ranks. Without ties and for samples of at most
// 20 each, p is exact; otherwise it is the normal approximation with tie
// and continuity corrections.
func mannWhitney(x, y []float64) (u, p float64) {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v   float64
		inX bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, true})
	}
	for _, v := range y {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var rankX, ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks i+1..j, averaged
		for k := i; k < j; k++ {
			if all[k].inX {
				rankX += mid
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	u = rankX - float64(n1*(n1+1))/2
	if ties == 0 && n1 <= 20 && n2 <= 20 {
		return u, exactP(n1, n2, int(u))
	}
	n := float64(n1 + n2)
	variance := float64(n1*n2) / 12 * ((n + 1) - ties/(n*(n-1)))
	if variance <= 0 {
		return u, 1
	}
	z := math.Max(math.Abs(u-float64(n1*n2)/2)-0.5, 0) / math.Sqrt(variance)
	return u, math.Erfc(z / math.Sqrt2)
}

// exactP is the two-sided p-value of U = u for samples of n1 and n2 without
// ties, from the exact null distribution of U.
func exactP(n1, n2, u int) float64 {
	// f[i][j][k] counts the orderings of i x's and j y's with U = k; the
	// largest element is either an x, beating all j y's, or a y.
	f := make([][][]float64, n1+1)
	for i := range f {
		f[i] = make([][]float64, n2+1)
		for j := range f[i] {
			f[i][j] = make([]float64, i*j+1)
			if i == 0 || j == 0 {
				f[i][j][0] = 1
				continue
			}
			for k := range f[i][j] {
				if k >= j && k-j < len(f[i-1][j]) {
					f[i][j][k] += f[i-1][j][k-j]
				}
				if k < len(f[i][j-1]) {
					f[i][j][k] += f[i][j-1][k]
				}
			}
		}
	}
	dist := f[n1][n2]
	var total, le, ge float64
	for k, c := range dist {
		total += c
		if k <= u {
			le += c
		}
		if k >= u {
			ge += c
		}
	}
	return math.Min(1, 2*math.Min(le, ge)/total)
}
