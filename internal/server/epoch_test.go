package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
)

// metricValue scrapes /metrics and returns the value of an unlabeled
// sample.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestQueryOnForwardingLoopAnswers installs a two-box forwarding loop
// through /rules/batch and checks that the looping /query answers 200
// with a finite path that closes the loop, instead of following the
// back edge forever.
func TestQueryOnForwardingLoopAnswers(t *testing.T) {
	ts, ds := testServer(t)
	l := ds.Links[0]
	a, b := ds.Boxes[l.A].Name, ds.Boxes[l.B].Name
	const dst = "203.0.113.7"
	loop := []RuleDeltaRequest{
		{Op: opAddFwd, Box: a, Prefix: dst + "/32", Port: l.PA},
		{Op: opAddFwd, Box: b, Prefix: dst + "/32", Port: l.PB},
	}
	var ack RulesBatchResponse
	if code := postJSON(t, ts.URL+"/rules/batch", loop, &ack); code != 200 || !ack.Applied {
		t.Fatalf("loop batch: status %d, %+v", code, ack)
	}

	// A client timeout turns a hung handler into a failure.
	client := &http.Client{Timeout: 30 * time.Second}
	body := strings.NewReader(fmt.Sprintf(`{"ingress":%q,"dst":%q}`, a, dst))
	resp, err := client.Post(ts.URL+"/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("looping query: status %d", resp.StatusCode)
	}
	var got QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := []string{a, b, a}; !equalStrings(got.Path, want) {
		t.Fatalf("path %v, want %v", got.Path, want)
	}
	looped := false
	for _, d := range got.Drops {
		looped = looped || strings.HasSuffix(d, string(network.DropLoop))
	}
	if !looped {
		t.Fatalf("drops %v report no loop", got.Drops)
	}
	var batch []QueryResponse
	if code := postJSON(t, ts.URL+"/query/batch", []QueryRequest{{Ingress: a, Dst: dst}, {Ingress: b, Dst: dst}}, &batch); code != 200 {
		t.Fatalf("looping batch: status %d", code)
	}
	if !equalStrings(batch[0].Path, got.Path) || !equalStrings(batch[1].Path, []string{b, a, b}) {
		t.Fatalf("batch paths %v, %v", batch[0].Path, batch[1].Path)
	}
}

// TestVerifyOnMiddleboxNetworkConflicts checks that /verify/* on an epoch
// whose topology carries a middlebox answers 409 with a JSON error
// rather than failing the request.
func TestVerifyOnMiddleboxNetworkConflicts(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 72, RuleScale: 0.01})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMiddlebox(1, &network.Middlebox{Name: "nat"})
	ts := httptest.NewServer(New(c).Handler())
	t.Cleanup(ts.Close)
	from, host := ds.Boxes[0].Name, ds.Hosts[0].Name
	for _, path := range []string{
		"/verify/loops",
		"/verify/reach?from=" + from + "&host=" + host,
		"/verify/blackholes?from=" + from,
	} {
		var out map[string]string
		if code := getJSON(t, ts.URL+path, &out); code != http.StatusConflict {
			t.Fatalf("%s: status %d, want 409", path, code)
		}
		if !strings.Contains(out["error"], "middlebox") {
			t.Fatalf("%s: error %q does not name the middlebox", path, out["error"])
		}
	}
	// Detaching the middlebox publishes an epoch verification accepts.
	c.SetMiddlebox(1, nil)
	var loops map[string]interface{}
	if code := getJSON(t, ts.URL+"/verify/loops", &loops); code != 200 {
		t.Fatalf("after detach: status %d", code)
	}
}

// TestQueryAfterReachIsCacheHit checks that targeted verification and
// the query path share the epoch's behavior cache: after /verify/reach
// walked every atom from an ingress, a /query from that ingress on the
// same epoch is answered from the cache without a walk.
func TestQueryAfterReachIsCacheHit(t *testing.T) {
	ts, ds := testServer(t)
	from := ds.Boxes[0].Name
	var reach map[string]interface{}
	if code := getJSON(t, ts.URL+"/verify/reach?from="+from+"&host="+ds.Hosts[0].Name, &reach); code != 200 {
		t.Fatalf("reach: status %d", code)
	}
	hits := metricValue(t, ts.URL, "apc_behavior_cache_hits_total")
	misses := metricValue(t, ts.URL, "apc_behavior_cache_misses_total")
	doQuery(t, ts.URL, from)
	if d := metricValue(t, ts.URL, "apc_behavior_cache_hits_total") - hits; d != 1 {
		t.Fatalf("query after reach: %v cache hits, want 1", d)
	}
	if d := metricValue(t, ts.URL, "apc_behavior_cache_misses_total") - misses; d != 0 {
		t.Fatalf("query after reach: %v cache misses, want 0", d)
	}
}
