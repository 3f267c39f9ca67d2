package bench

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// Host identifies the machine a baseline was measured on. Benchmarks
// are only comparable between like hosts: the regression gate uses
// this record to demote cross-host comparisons to warnings instead of
// failing on hardware differences (satellite S1 of the sharded-ingest
// work, and a long-standing bench-check footgun).
type Host struct {
	// CPUModel is the CPU model string (from /proc/cpuinfo on Linux;
	// empty where unavailable).
	CPUModel string `json:"cpu_model,omitempty"`
	// NumCPU and GOMAXPROCS bound the parallelism the sharded
	// scenarios could use when the baseline was recorded.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// GoVersion is the toolchain that built the benchmark binary.
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// CurrentHost describes the running machine.
func CurrentHost() Host {
	return Host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Comparable reports whether baselines from h transfer to o: same CPU
// model and the same parallelism envelope. Go version differences are
// deliberately excluded — they warrant a warning, not gate demotion.
func (h Host) Comparable(o Host) bool {
	return h.CPUModel == o.CPUModel && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS
}

// cpuModel best-effort reads the CPU model name; empty when the
// platform doesn't expose /proc/cpuinfo (non-Linux, sandboxes).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// File is the BENCH_hotpath.json format: the host the numbers were
// measured on plus one Result per scenario.
type File struct {
	Host    Host     `json:"host"`
	Results []Result `json:"results"`
}
