package workload

// CPUProfile characterises one Parsec CPU benchmark as a
// dependency-throttled network trace, following the paper's Netrace
// methodology: what matters to the experiments is each benchmark's
// injection rate and how strongly its performance depends on network
// latency (its memory-level parallelism).
type CPUProfile struct {
	Name string
	// InjRate is the per-core request injection rate in requests/cycle
	// at zero contention (requests are single-flit, so this matches the
	// paper's 0.013-0.084 flits/cycle range).
	InjRate float64
	// MLP bounds outstanding misses per core. Small MLP makes the
	// benchmark latency-sensitive (vips); large MLP makes it
	// throughput-robust (dedup).
	MLP int
	// SeqP is the probability of continuing a sequential stream.
	SeqP float64
}

// CPUProfiles returns the nine Parsec benchmarks used in Table II.
func CPUProfiles() []CPUProfile {
	return []CPUProfile{
		{Name: "blackscholes", InjRate: 0.015, MLP: 3, SeqP: 0.7},
		{Name: "bodytrack", InjRate: 0.025, MLP: 4, SeqP: 0.5},
		{Name: "canneal", InjRate: 0.060, MLP: 4, SeqP: 0.1},
		{Name: "dedup", InjRate: 0.084, MLP: 16, SeqP: 0.6},
		{Name: "ferret", InjRate: 0.040, MLP: 5, SeqP: 0.4},
		{Name: "fluidanimate", InjRate: 0.035, MLP: 5, SeqP: 0.5},
		{Name: "swaptions", InjRate: 0.013, MLP: 3, SeqP: 0.6},
		{Name: "vips", InjRate: 0.070, MLP: 2, SeqP: 0.6},
		{Name: "x264", InjRate: 0.050, MLP: 6, SeqP: 0.5},
	}
}

// CPUNames returns the CPU benchmark names in CPUProfiles order.
func CPUNames() []string {
	var names []string
	for _, p := range CPUProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// CPUProfileByName returns the named profile; it panics on unknown
// names (a configuration error).
func CPUProfileByName(name string) CPUProfile {
	for _, p := range CPUProfiles() {
		if p.Name == name {
			return p
		}
	}
	panic("workload: unknown CPU benchmark " + name)
}

// TableII returns the GPU benchmark -> CPU benchmark pairings of
// Table II (three CPU co-runners per GPU benchmark, 33 workloads).
func TableII() map[string][3]string {
	return map[string][3]string{
		"2DCON": {"blackscholes", "canneal", "dedup"},
		"3DCON": {"bodytrack", "dedup", "fluidanimate"},
		"BT":    {"dedup", "fluidanimate", "vips"},
		"SC":    {"bodytrack", "ferret", "swaptions"},
		"HS":    {"bodytrack", "ferret", "x264"},
		"LPS":   {"fluidanimate", "vips", "x264"},
		"LUD":   {"ferret", "blackscholes", "swaptions"},
		"MM":    {"canneal", "fluidanimate", "vips"},
		"NN":    {"blackscholes", "fluidanimate", "swaptions"},
		"SRAD":  {"fluidanimate", "ferret", "x264"},
		"BP":    {"blackscholes", "bodytrack", "ferret"},
	}
}
