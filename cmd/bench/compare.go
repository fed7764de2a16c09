package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareReports prints, for every workload and end-to-end metric the two
// reports share, both medians, the ratio with its base, the bound and a
// verdict; it fails when any metric is worse.
//
//	ok          b's median is no worse than a's by more than the bound
//	worse       it is
//	unresolved  the run-to-run spread of either side is wider than the
//	            bound, so the medians cannot tell — unless every run of b
//	            reads better than every run of a, which is ok
//
// The sim_* metrics of the traced pass (percentiles, NAND bytes per user
// byte) are compared too, at 1 %, and fail_share as an absolute difference.
// sim_digest is compared exactly: a change that claims only host-side speed
// must leave it identical.
func compareReports(stdout io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("bench: -compare takes two report files, got %d", len(paths))
	}
	a, err := loadReport(paths[0])
	if err != nil {
		return err
	}
	b, err := loadReport(paths[1])
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(stdout, "note: a is seed %d, %g s; b is seed %d, %g s — simulated results differ by construction\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	if a.NumCPU != b.NumCPU {
		fmt.Fprintf(stdout, "note: a ran on %d CPUs, b on %d — host metrics are not comparable\n", a.NumCPU, b.NumCPU)
	}
	fmt.Fprintf(stdout, "%-17s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			d.Bound = sameSeed[d.Name]
			sa, oka := wa.EndToEnd[d.Name]
			sb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				continue
			}
			v := verdict(d, sa.Values, sb.Values)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-17s %-28s %14.6g %14.6g %9.4f %6.1f%%  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, ratio(sb.Median, sa.Median), d.Bound*100, v)
		}
		// The simulated end-to-end metrics only some workloads have: one value
		// a side, from the traced pass, exact for a seed.
		for _, d := range perLayer {
			va, oka := wa.PerLayer[d.Name]
			vb, okb := wb.PerLayer[d.Name]
			if !oka || !okb {
				continue
			}
			switch {
			case d.Name == "fail_share":
				v := "ok"
				if vb.Value > va.Value+failShareBound || (wa.Correct && !wb.Correct) {
					v = "worse"
					worse++
				}
				fmt.Fprintf(stdout, "%-17s %-28s %14.6g %14.6g %9s %+6.3f  %s\n", wa.Name, d.Name, va.Value, vb.Value, "", failShareBound, v)
			case strings.HasPrefix(d.Name, "sim_"):
				d.Bound = simBound
				v := verdict(d, []float64{va.Value}, []float64{vb.Value})
				if v == "worse" {
					worse++
				}
				fmt.Fprintf(stdout, "%-17s %-28s %14.6g %14.6g %9.4f %6.1f%%  %s\n",
					wa.Name, d.Name, va.Value, vb.Value, ratio(vb.Value, va.Value), d.Bound*100, v)
			}
		}
		same := "identical"
		if wa.SimDigest != wb.SimDigest {
			same = "DIFFERENT (simulated results changed)"
		}
		fmt.Fprintf(stdout, "%-17s %-28s %s\n", wa.Name, "sim_digest", same)
	}
	if worse > 0 {
		return fmt.Errorf("bench: %d metric(s) worse than the bound", worse)
	}
	return nil
}

// failShareBound is how much fail_share may rise, absolutely, before
// -compare calls it worse. simBound is the bound on the sim_* metrics in
// perLayer: they are exact for a seed, so anything beyond it is a change.
const (
	failShareBound = 0.001
	simBound       = 0.01
)

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Tool != "bench" || len(r.Workloads) == 0 {
		return nil, fmt.Errorf("bench: %s is not a bench report", path)
	}
	return &r, nil
}

func (r *report) workload(name string) *workloadReport {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// verdict judges metric d between the runs of a (the base) and of b.
func verdict(d metric, a, b []float64) string {
	sign := 1.0 // worsening is positive
	if d.Better == "higher" {
		sign = -1
	}
	if max(spread(a), spread(b)) > d.Bound {
		// Too noisy for the medians to decide, unless the sides do not overlap
		// at all in b's favour.
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "ok"
		}
		return "unresolved"
	}
	if ma := median(a); sign*(median(b)-ma) > d.Bound*ma {
		return "worse"
	}
	return "ok"
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles of Python's statistics.quantiles(v, n=4) —
// the driver's definition.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}
