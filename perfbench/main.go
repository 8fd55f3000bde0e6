// Command perfbench is the repository benchmark: it builds one workload's
// network through the public layers of the program, drives it with
// closed- and open-loop load, checks the answers against the rule-table
// simulator, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run records spans around its calls into each layer and reports the
// per-layer metrics instead. Workloads, metrics and the layer each metric
// should move are described in README.md next to this file.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload query-i2 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts make a result comparable with a later one, or show that it is
// not.
type hostFacts struct {
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Rates      map[string]float64 `json:"frozen_rates_per_s"` // open loops in requests, churn in batches
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "measured seconds per run, split across the workload's phases")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and checkpoint scratch")
	restore := flag.String("restore", "", "internal: restore this checkpoint in this process, answer one query, print the timings")
	ingress := flag.Int("ingress", 0, "internal: the --restore query's ingress box")
	packet := flag.String("packet", "", "internal: the --restore query's packet, hex")
	flag.Parse()

	if *restore != "" {
		if err := restoreChild(*restore, *ingress, *packet); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: restore: %v\n", err)
			os.Exit(1)
		}
		return
	}

	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	b, err := newBench(*workload, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer b.cleanup()
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		b.cleanup()
		os.Exit(1)
	}
	res := b.result()
	if err := b.finishTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		b.cleanup()
		os.Exit(1)
	}
	hf := hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Rates: w.rates,
	}
	host, err := json.Marshal(map[string]interface{}{"workload": *workload, "seed": *seed, "trace": *trace, "host": hf})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	fmt.Println(string(host))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		b.cleanup()
		os.Exit(1)
	}
	if err := reportOverhead(*out, *workload, *seed, *seconds, *trace, res, line); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: tracing overhead: %v\n", err)
	}
	fmt.Println(string(line))
}

// reportOverhead keeps each run's result under out/results and, for a
// traced run whose untraced twin (same workload, seed and length) is
// there, prints the tracing overhead: each traced.<metric> against the
// untraced <metric>.
func reportOverhead(out, workload string, seed int64, seconds float64, trace int, res result, line []byte) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := func(t int) string {
		return filepath.Join(dir, fmt.Sprintf("%s-seed%d-s%g-trace%d.json", workload, seed, seconds, t))
	}
	if err := os.WriteFile(name(trace), line, 0o644); err != nil {
		return err
	}
	if trace != 1 {
		return nil
	}
	data, err := os.ReadFile(name(0))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var plain result
	if err := json.Unmarshal(data, &plain); err != nil {
		return err
	}
	for _, m := range endToEnd {
		t, ok1 := res.Metrics["traced."+m.name]
		u, ok2 := plain.Metrics[m.name]
		if ok1 && ok2 {
			fmt.Printf("overhead %-22s traced %12.6g untraced %12.6g %s (%+.1f%%)\n", m.name, t.Value, u.Value, m.unit, 100*(t.Value-u.Value)/u.Value)
		}
	}
	return nil
}

// validMetric reports whether a value can be printed as a JSON number.
func validMetric(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
