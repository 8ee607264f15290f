// Command perfbench is the repository benchmark: seeded workloads that
// drive OFTEC through its public Go APIs, check every output, and print
// the end-to-end metrics (untraced) or the per-layer metrics (traced) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload optimize-paper --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workDir holds everything a run leaves behind (ROM caches, determinism
// records, span dumps). It is relative to the working directory, which is
// the repository root when started through run.sh.
const workDir = ".bench_build/perfbench"

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// workloadFunc runs one workload and returns its result; an error means
// the run could not be carried out at all.
type workloadFunc func(rc runConfig) (*result, error)

var workloads = map[string]workloadFunc{
	"optimize-paper":   runOptimizePaper,
	"optimize-adjoint": runOptimizeAdjoint,
	"surface-batch":    runSurfaceBatch,
	"serve-open":       runServeOpen,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	writeRefs := flag.String("write-refs", "", "recompute the stored reference answers into this directory and exit")
	calibrate := flag.Int("calibrate-serve", 0, "run this many serve-open requests as a closed loop, print capacity and latency, and exit")
	profile := flag.Int("profile-serve", 0, "replay this many serve-open requests one at a time, print which kinds missed the evaluation cache, and exit")
	flag.Parse()

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *writeRefs != "" {
		if err := writeReferences(*writeRefs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if *calibrate > 0 {
		if err := calibrateServe(*seed, *calibrate); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *profile > 0 {
		if err := profileServe(*seed, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// The numbers depend on the host, so its facts are printed with them.
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d %s\n", *name, *seed, *seconds, *trace, environment())
	res, err := run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment records the host facts the numbers depend on.
func environment() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q go=%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), model, runtime.Version())
}

// printResult writes the human-readable metric lines and then the JSON
// result as the last line.
func printResult(f *os.File, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(line))
}

// runDir makes a fresh directory under workDir for one run's files.
func runDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(workDir, prefix)
	if err != nil {
		return "", fmt.Errorf("making %s run directory: %w", prefix, err)
	}
	return dir, nil
}

// removeAll deletes a run directory, reporting but not failing on
// errors (a leftover directory under workDir is harmless).
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing", dir+":", err)
	}
}

// spanPath names the span dump of a traced run.
func spanPath(workload string, seed uint64) string {
	return filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
