package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadLedger(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(l.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a ledger (run without -workload and with -out to produce one)", path)
	}
	return &l, nil
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if lowerIsBetter && y >= x || !lowerIsBetter && y <= x {
				return false
			}
		}
	}
	return true
}

// verdict classifies one workload × end-to-end metric pairing:
//
//	regressed    the new median is worse than the base by more than the bound
//	improved     it is better by more than the base's own quartile spread
//	unresolved   the run-to-run spread of either side is wider than the
//	             bound, so neither of the above can be claimed — unless
//	             every new run is better (improved) or worse beyond the
//	             bound (regressed) than every base run
//	within-bound otherwise
func verdict(def metricDef, base, next Series) (worse float64, v string) {
	lower := def.Better == "lower"
	if base.Median == 0 {
		return 0, "unresolved"
	}
	worse = (next.Median - base.Median) / base.Median
	if !lower {
		worse = -worse
	}
	noisy := base.spread() > def.Bound || next.spread() > def.Bound
	switch {
	case noisy && allBetter(base.Values, next.Values, lower):
		v = "improved"
	case noisy && worse > def.Bound && allBetter(next.Values, base.Values, lower):
		v = "regressed"
	case noisy:
		v = "unresolved"
	case worse > def.Bound:
		v = "regressed"
	case worse < 0 && -worse > base.spread():
		v = "improved"
	default:
		v = "within-bound"
	}
	return worse, v
}

// compareFiles prints, per workload × end-to-end metric, base, new,
// relative change and the verdict; every ratio with its base. The exit
// code is 1 on a regression or a higher fail_ratio.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadLedger(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadLedger(pathB)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "base %s (%s, %d runs)\nnew  %s (%s, %d runs)\n\n", pathA, a.Meta["commit"], len(a.Seeds), pathB, b.Meta["commit"], len(b.Seeds))
	fmt.Fprintf(w, "%-13s %-22s %-9s %14s %14s %9s %7s  %s\n", "workload", "metric", "unit", "base", "new", "change", "bound", "verdict")
	failed := 0
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, oka := wa.Untraced[def.Name]
			sb, okb := wb.Untraced[def.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-13s %-22s missing from one side\n", name, def.Name)
				failed++
				continue
			}
			_, v := verdict(def, sa, sb)
			change := 100 * (sb.Median - sa.Median) / sa.Median
			fmt.Fprintf(w, "%-13s %-22s %-9s %14.6g %14.6g %+8.1f%% %6.0f%%  %s", name, def.Name, def.Unit, sa.Median, sb.Median, change, 100*def.Bound, v)
			if v == "unresolved" {
				fmt.Fprintf(w, " (spread base %.1f%%, new %.1f%%)", 100*sa.spread(), 100*sb.spread())
			}
			fmt.Fprintln(w)
			if v == "regressed" {
				failed++
			}
		}
		verdictF := "same"
		if wb.FailRatio > wa.FailRatio {
			verdictF = "regressed"
			failed++
		}
		fmt.Fprintf(w, "%-13s %-22s %-9s %14.6g %14.6g %9s %7s  %s\n", name, "fail_ratio", "fraction", wa.FailRatio, wb.FailRatio, "", "0", verdictF)
	}
	if failed > 0 {
		return 1, fmt.Errorf("%d regression(s)", failed)
	}
	return 0, nil
}
