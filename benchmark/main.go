// Command benchmark is the repo's benchmark: five workloads, from the
// tick engine to the fleet, measured from outside through the layers'
// public functions and the programs' public HTTP surfaces. README.md in
// this directory has the metric catalogue and how to read the output;
// BENCHMARK.json at the repo root is the contract the driver checks.
//
//	bash benchmark/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -trace 1 -out results.json   # all five, both modes
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// options are the command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	runs      int
	out       string
	traceOut  string
	scaleName string
	compare   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: spec i runs with seed 1000·S+i, shuffles use a PRNG seeded with S")
	flag.IntVar(&o.seconds, "seconds", 20, "how long one workload measures; scales the repetition constants, never the workload")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run that yields the per-layer metrics")
	flag.IntVar(&o.runs, "runs", 1, "with all workloads: untraced runs per workload, on seeds S, S+1, …; the ledger keeps medians and quartiles")
	flag.StringVar(&o.out, "out", "", "write the full result (one workload) or the ledger (all workloads) to this JSON file")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.StringVar(&o.scaleName, "scale", "full", "full | smoke (minimal counts and windows; what bench_test.go runs)")
	flag.BoolVar(&o.compare, "compare", false, "compare two ledgers: benchmark -compare A.json B.json")
	flag.Parse()
	code, err := run(o, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(o options, args []string) (int, error) {
	if o.compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("usage: benchmark -compare A.json B.json")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	traced := o.trace == 1
	if o.seconds < 1 || o.runs < 1 || (o.trace != 0 && !traced) || (o.scaleName != "full" && o.scaleName != "smoke") {
		return 2, fmt.Errorf("bad flags: -seconds >= 1, -runs >= 1, -trace 0|1, -scale full|smoke")
	}
	if o.workload == "" {
		return runAll(o.seed, o.runs, o.seconds, traced, o.out, o.scaleName)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known {
		return 2, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}

	e, err := newEnv()
	if err != nil {
		return 2, err
	}
	defer e.close()
	// Children die with us on SIGINT/SIGTERM too, not only on return.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()

	gold, err := loadGolden(filepath.Join(e.root, "benchmark", "golden_digests.json"))
	if err != nil {
		return 2, err
	}
	sc := fullScale(o.seconds, traced)
	if o.scaleName == "smoke" {
		sc = smokeScale(traced)
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(e.root, buildDir, "trace-"+o.workload+".json")
	}
	res, err := runWorkload(e, o.workload, o.seed, o.seconds, traced, sc, gold, o.traceOut)
	if err != nil {
		return 2, err
	}
	printResult(os.Stdout, res)
	if res.Diag != "" {
		fmt.Fprintln(os.Stderr, res.Diag)
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return 2, err
		}
	}
	line, err := driverLine(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(line)
	return 0, nil
}

func loadGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return g, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setup builds the four binaries and starts whatever daemons the
// workload needs, timing the whole of it; it repeats setupReps times
// (tearing the daemons down in between) and reports the median, so the
// one cold compile of a fresh checkout does not set the number. The
// service of the last repetition is the one the workload then uses.
func setup(e *env, workload string, reps int) (*service, float64, error) {
	var svc *service
	var times []float64
	for i := 0; i < reps; i++ {
		if svc != nil {
			svc.stop()
		}
		start := time.Now()
		err := e.build()
		if err == nil {
			switch workload {
			case wlServe:
				svc, err = startServe(e)
			case wlFleet:
				svc, err = startFleet(e)
			default:
				_, err = e.mkdir("work")
			}
		}
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return svc, median(times), nil
}

// runWorkload executes one workload once, traced or not.
func runWorkload(e *env, workload string, seed int64, seconds int, traced bool, sc scale, golden map[string]string, traceOut string) (*Result, error) {
	res := newResult(workload, seed, seconds, traced)
	res.Constants = sc.constants()
	svc, setupS, err := setup(e, workload, sc.setupReps)
	if err != nil {
		return nil, err
	}
	if svc != nil {
		defer svc.stop()
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	switch workload {
	case wlSimSerial:
		if traced {
			traceSimSerial(res, sc, golden, rec)
		} else {
			runSimSerial(res, sc, golden)
		}
	case wlSimParallel:
		if traced {
			traceSimParallel(res, sc, golden, rec)
		} else {
			runSimParallel(res, sc, golden)
		}
	case wlSweep:
		runSweep(res, e, sc, rec)
		if traced {
			traceSweep(res, e, sc, rec)
		}
	case wlServe:
		sr := runService(res, svc, sc, sc.serveBatches, rec)
		serveSurface(res, svc, sr, sc.batchSize)
		if traced {
			traceServe(res, e, svc, sr, sc, rec)
		}
	case wlFleet:
		sr := runService(res, svc, sc, sc.fleetBatches, rec)
		fleetSurface(res, svc, sr)
		if traced {
			traceFleet(res, e, sr, sc, rec)
		}
	}
	if !traced {
		res.set("setup_s", setupS)
	}
	res.finish()
	if traced {
		for name, d := range rec.selfTimes() {
			res.note("self."+name, d.Seconds(), "s")
		}
		if err := rec.writeChrome(traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// driverLine renders the one JSON object the driver reads: exactly the
// end-to-end metrics untraced, exactly the per-layer metrics traced.
// An end-to-end metric the run did not produce is an error; a per-layer
// metric this workload's traced run does not exercise reads 0.
func driverLine(res *Result) (string, error) {
	list := endToEnd
	if res.Traced {
		list = perLayer
	}
	metrics := map[string]Metric{}
	for _, def := range list {
		m, ok := res.Metrics[def.Name]
		if !ok {
			if !res.Traced {
				return "", fmt.Errorf("workload %s produced no %s", res.Workload, def.Name)
			}
			m = Metric{Unit: def.Unit}
		}
		metrics[def.Name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b), err
}

// printResult prints every metric the run produced by name with its
// unit, the per-phase operation counts, and any failed check.
func printResult(w *os.File, res *Result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %d s, %s)\n", res.Workload, res.Seed, res.Seconds, mode)
	for _, p := range res.Phases {
		fmt.Fprintf(w, "  phase %-18s attempted %6d  succeeded %6d  failed %4d  %8.3f s\n",
			p.Name, p.Attempted, p.Succeeded, p.Failed, p.WallS)
	}
	fmt.Fprintf(w, "  fail_ratio %g (%d of %d)\n", res.FailRatio, res.Failed, res.Attempted)
	printMetrics := func(title string, m map[string]Metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(names) > 0 {
			fmt.Fprintf(w, "  %s:\n", title)
		}
		for _, n := range names {
			fmt.Fprintf(w, "    %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	printMetrics("metrics", res.Metrics)
	printMetrics("notes (not gated)", res.Notes)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	if n := res.nProblems - len(res.Problems); n > 0 {
		fmt.Fprintf(w, "  ... and %d more failed checks\n", n)
	}
}
