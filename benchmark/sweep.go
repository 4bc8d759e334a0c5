package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// paperDRGainPct is the paper's headline: Delegated Replies improve GPU
// performance by 25.7% on average.
const paperDRGainPct = 25.7

// sweepRun is one expdriver invocation as seen from outside.
type sweepRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
	stderr []byte
	err    error
	// Parsed from the CLI's own stderr summary line.
	executed, diskHits, memoHits int
}

var summaryRE = regexp.MustCompile(`expdriver: (\d+) simulations executed, (\d+) disk-cache hits, (\d+) in-process shares`)

// expdriver runs the real binary with the sweep's arguments against a
// cache dir. The sweep passes -seed S unchanged, so seed 1 reproduces
// the committed experiments_output.txt.
func expdriver(e *env, seed int64, cacheDir string, sweepArgs []string) sweepRun {
	args := append([]string{"-seed", strconv.FormatInt(seed, 10), "-j", strconv.Itoa(procs()), "-cache", cacheDir}, sweepArgs...)
	cmd := e.command("expdriver", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := sweepRun{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	if m := summaryRE.FindSubmatch(r.stderr); m != nil {
		r.executed, _ = strconv.Atoi(string(m[1]))
		r.diskHits, _ = strconv.Atoi(string(m[2]))
		r.memoHits, _ = strconv.Atoi(string(m[3]))
	} else if err == nil {
		r.err = fmt.Errorf("expdriver printed no summary line")
	}
	return r
}

// committedSections extracts the named "### name" sections from the
// committed experiments_output.txt, concatenated in the given order.
func committedSections(root string, names []string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		return nil, err
	}
	sections := map[string]string{}
	for _, part := range strings.Split("\n"+string(b), "\n### ")[1:] {
		name, _, _ := strings.Cut(part, " ")
		sections[name] = "### " + part + "\n"
	}
	var out strings.Builder
	for _, n := range names {
		s, ok := sections[n]
		if !ok {
			return nil, fmt.Errorf("experiments_output.txt has no section %q", n)
		}
		out.WriteString(s)
	}
	// The split consumed the newline that ends the file's last section.
	return []byte(strings.TrimSuffix(out.String(), "\n") + "\n"), nil
}

var gainRE = regexp.MustCompile(`measured: DR \+?(-?[0-9.]+)%`)

// runSweep: the real expdriver, cold once, then the identical command
// warm. With a recorder each invocation is one span.
func runSweep(res *Result, e *env, sc scale, rec *recorder) (cold sweepRun, warm []sweepRun) {
	cacheDir, err := e.mkdir("sweep-cache")
	if err != nil {
		res.problem("sweep: %v", err)
		return
	}
	root := rec.begin("sweep", noSpan, 0)
	s := rec.begin("expdriver.cold", root, 1)
	cold = expdriver(e, res.Seed, cacheDir, sc.sweepArgs)
	rec.end(s)
	failed := 0
	if cold.err != nil {
		failed = 1
		res.problem("expdriver cold: %v", cold.err)
		res.Diag = tail(cold.stderr, 20)
	}
	res.phase("cold", 1, failed, cold.wall)

	failed = 0
	var warmWall time.Duration
	var warmMS []float64
	var warmCPU time.Duration
	reExecuted := 0
	for i := 0; i < sc.warmReruns; i++ {
		s := rec.begin("expdriver.warm", root, uint64(i+2))
		w := expdriver(e, res.Seed, cacheDir, sc.sweepArgs)
		rec.end(s)
		warm = append(warm, w)
		warmWall += w.wall
		warmCPU += w.cpu
		warmMS = append(warmMS, ms(w.wall))
		reExecuted += w.executed
		switch {
		case w.err != nil:
			failed++
			res.problem("expdriver warm %d: %v", i, w.err)
		case !bytes.Equal(w.stdout, cold.stdout):
			failed++
			res.problem("expdriver warm %d: stdout differs from the cold run's", i)
		case w.executed != 0:
			failed++
			res.problem("expdriver warm %d: executed %d simulations, want 0", i, w.executed)
		}
	}
	rec.end(root)
	res.phase("warm", sc.warmReruns, failed, warmWall)

	// Seed 1 with the full figure set must reproduce the committed record.
	if res.Seed == 1 && sc.sweepRecord && cold.err == nil {
		want, err := committedSections(e.root, sweepFigures)
		bad := 0
		if err != nil {
			bad = 1
			res.problem("sweep: %v", err)
		} else if !bytes.Equal(cold.stdout, want) {
			bad = 1
			res.problem("sweep: stdout differs from the committed experiments_output.txt sections")
		}
		res.phase("committed-record", 1, bad, 0)
	}

	if cold.err != nil || len(warmMS) == 0 {
		return
	}
	delivered := float64(cold.executed + cold.diskHits + cold.memoHits)
	simCycles := float64(cold.executed) * float64(sc.sweepCycles)
	res.set("wall_s", (cold.wall + warmWall).Seconds())
	res.set("cpu_s", (cold.cpu + warmCPU).Seconds())
	res.set("peak_rss_mb", cold.rssMB)
	res.set("sim_cycles_per_s", simCycles/cold.wall.Seconds())
	res.set("cold_jobs_per_s", float64(cold.executed)/cold.wall.Seconds())
	res.set("cold_latency_p50_ms", ms(cold.wall))
	res.set("hot_jobs_per_s", delivered/(median(warmMS)/1000))
	res.set("hot_latency_p50_ms", median(warmMS))

	res.set("runner.executed", float64(cold.executed))
	res.set("runner.memo_hits", float64(cold.memoHits))
	res.set("runner.disk_hits", float64(warm[0].diskHits))
	res.set("runner.failed", float64(res.nProblems))
	res.set("runner.useful_ratio", float64(cold.executed)/float64(cold.executed+reExecuted))
	res.set("runner.worker_idle_pct", 100*(1-cold.cpu.Seconds()/(float64(procs())*cold.wall.Seconds())))
	if m := gainRE.FindSubmatch(cold.stdout); m != nil {
		gain, _ := strconv.ParseFloat(string(m[1]), 64)
		res.set("model.dr_gain_pct", gain)
		res.set("model.dr_gain_error_pp", math.Abs(gain-paperDRGainPct))
	}
	return cold, warm
}

// traceSweep adds the simspec/runner micro-metrics and the CLI
// start-up cost to a traced sweep.
func traceSweep(res *Result, e *env, sc scale, rec *recorder) {
	start := time.Now()
	failed := 0
	if err := traceRunnerLayers(res, e, sc, rec); err != nil {
		failed = 1
		res.problem("runner layers: %v", err)
	}
	var t []float64
	for i := 0; i < 10; i++ {
		cmd := e.command("delrepsim", "-list")
		s := time.Now()
		if err := cmd.Run(); err != nil {
			failed = 1
			res.problem("delrepsim -list: %v", err)
			break
		}
		t = append(t, ms(time.Since(s)))
	}
	res.set("cli.delrepsim_startup_ms", median(t))
	res.phase("layers", 2, failed, time.Since(start))
}
