package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"apclassifier/internal/rule"
)

// TestConcurrentQueriesAndUpdates hammers the HTTP API from many
// goroutines at once: behavior queries, rule installs/removals,
// reconstructions, stats reads, metrics scrapes and trace reads all
// interleave. The server takes no lock of its own — readers pin an
// epoch, updates serialize inside the classifier — so this test is what
// proves every reader, a scrape included, racing a snapshot swap
// (reconstruct retires the DD and flushes its stats) is clean under -race.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	ts, ds := testServer(t)
	const (
		workers          = 6
		requestsPerGorou = 40
	)
	boxName := ds.Boxes[0].Name

	// Pre-generate probe headers: RandomFields samples the dataset's rule
	// tables, which the rules/add and rules/remove handlers mutate under
	// the classifier's writer mutex, so draw all probes before the storm
	// begins.
	probeRng := rand.New(rand.NewSource(7))
	probes := make([]rule.Fields, workers*requestsPerGorou)
	for i := range probes {
		probes[i] = ds.RandomFields(probeRng)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*requestsPerGorou)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requestsPerGorou; i++ {
				switch rng.Intn(7) {
				case 0: // stats
					var stats StatsResponse
					if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
						errs <- fmt.Errorf("stats status %d", code)
						return
					}
				case 1: // rule install on a private prefix per worker
					prefix := fmt.Sprintf("203.%d.%d.0/24", seed, i%250)
					code := postJSON(t, ts.URL+"/rules/add", RuleRequest{
						Box: boxName, Prefix: prefix, Port: 0,
					}, nil)
					if code != 200 {
						errs <- fmt.Errorf("rules/add status %d", code)
						return
					}
				case 2: // rule removal (may 404 if not yet added; both are fine)
					prefix := fmt.Sprintf("203.%d.%d.0/24", seed, rng.Intn(250))
					code := postJSON(t, ts.URL+"/rules/remove", RuleRequest{
						Box: boxName, Prefix: prefix,
					}, nil)
					if code != 200 && code != 404 {
						errs <- fmt.Errorf("rules/remove status %d", code)
						return
					}
				case 3: // reconstruction racing the queries
					code := postJSON(t, ts.URL+"/reconstruct",
						map[string]bool{"weighted": rng.Intn(2) == 0}, nil)
					if code != 200 {
						errs <- fmt.Errorf("reconstruct status %d", code)
						return
					}
				case 4: // metrics scrape racing swaps and updates
					resp, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						errs <- err
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != 200 {
						errs <- fmt.Errorf("metrics status %d", resp.StatusCode)
						return
					}
					if !bytes.Contains(body, []byte("apc_aptree_classify_total")) {
						errs <- fmt.Errorf("metrics scrape missing classify counter")
						return
					}
				case 5: // trace read racing trace writes
					var tr struct {
						Count int `json:"count"`
					}
					if code := getJSON(t, ts.URL+"/debug/trace?n=16", &tr); code != 200 {
						errs <- fmt.Errorf("trace status %d", code)
						return
					}
					if tr.Count < 0 || tr.Count > 16 {
						errs <- fmt.Errorf("trace count %d out of range", tr.Count)
						return
					}
				default: // behavior query
					f := probes[int(seed)*requestsPerGorou+i]
					var resp QueryResponse
					code := postJSON(t, ts.URL+"/query", QueryRequest{
						Ingress: ds.Boxes[rng.Intn(len(ds.Boxes))].Name,
						Dst:     dotted(f.Dst),
						Src:     dotted(f.Src),
						SrcPort: f.SrcPort,
						DstPort: f.DstPort,
						Proto:   f.Proto,
					}, &resp)
					if code != 200 {
						errs <- fmt.Errorf("query status %d", code)
						return
					}
					if resp.Atom < 0 {
						errs <- fmt.Errorf("query returned atom %d", resp.Atom)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The classifier must still answer coherently after the storm.
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("final stats status %d", code)
	}
	if stats.Atoms == 0 || stats.Predicates == 0 {
		t.Fatalf("classifier degenerated: %+v", stats)
	}
}

func dotted(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}
