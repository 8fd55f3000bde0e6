package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"apclassifier/internal/obs"
)

// counters reads the program's exported metrics the way a scraper would:
// the Prometheus text exposition of obs.Default, keyed by sample name
// (labels included verbatim, e.g. `apc_delta_ops_total{op="add-fwd"}`).
func counters() map[string]float64 {
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// counterDelta is the change of each named sample between two reads.
func counterDelta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
